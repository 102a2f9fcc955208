/* SHA-256 block compression with the x86-64 SHA extensions, and the
   CPUID probe that says whether this CPU has them.

   The code is compiled for every x86-64 target with the extensions enabled
   per function (the [target] attribute), never by a global -m flag, so a
   binary built on a host with SHA extensions still starts on one without:
   [Sha256] calls the kernel only after the probe said yes.  Neither stub
   keeps any state of its own; the probe's answer lives in an OCaml
   top-level value, so any number of domains may call both at once.

   On other architectures the probe answers false and the kernel is never
   called. */

#define CAML_NAME_SPACE
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

/* CPUID.1:ECX bit 9 is SSSE3 and bit 19 SSE4.1; CPUID.(7,0):EBX bit 29 is
   the SHA extensions. */
value bca_sha256_x86_available(value unit)
{
  unsigned int a, b, c, d;
  (void)unit;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return Val_false;
  if (!(c & (1u << 9)) || !(c & (1u << 19))) return Val_false;
  if (__get_cpuid_max(0, NULL) < 7) return Val_false;
  __cpuid_count(7, 0, a, b, c, d);
  return Val_bool(b & (1u << 29));
}

static const uint32_t k[64] = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2
};

/* Four rounds on message words W[4i..4i+3] (in [m]): each sha256rnds2
   does two, the second on the upper half of W+K.  The pair leaves the
   state where it found it, [abef] = (A,B,E,F) and [cdgh] = (C,D,G,H). */
#define ROUNDS4(m, i)                                                        \
  do {                                                                       \
    __m128i wk = _mm_add_epi32((m), _mm_loadu_si128((const __m128i *)&k[4 * (i)])); \
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);                            \
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));   \
  } while (0)

/* W[4i..4i+3] from the previous sixteen words, in place of W[4i-16..]:
   msg1 adds sigma0(W[t-15]) to W[t-16], the alignr supplies W[t-7] and
   msg2 adds sigma1(W[t-2]). */
#define SCHEDULE(m0, m1, m2, m3)                                             \
  m0 = _mm_sha256msg2_epu32(                                                 \
    _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4)), m3)

__attribute__((target("sha,sse4.1")))
static void compress(uint32_t st[8], const unsigned char *p, long n)
{
  /* byte-swaps each 32-bit word: the message is big-endian */
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  /* (A,B,C,D),(E,F,G,H) into the (A,B,E,F),(C,D,G,H) pairing of sha256rnds2 */
  __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[0]), 0xB1);
  __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&st[4]), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; n > 0; n--, p += 64) {
    __m128i abef0 = abef, cdgh0 = cdgh;
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 0)), bswap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 16)), bswap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 32)), bswap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(p + 48)), bswap);
    ROUNDS4(m0, 0);
    ROUNDS4(m1, 1);
    ROUNDS4(m2, 2);
    ROUNDS4(m3, 3);
    for (int i = 4; i < 16; i += 4) {
      SCHEDULE(m0, m1, m2, m3);
      ROUNDS4(m0, i);
      SCHEDULE(m1, m2, m3, m0);
      ROUNDS4(m1, i + 1);
      SCHEDULE(m2, m3, m0, m1);
      ROUNDS4(m2, i + 2);
      SCHEDULE(m3, m0, m1, m2);
      ROUNDS4(m3, i + 3);
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }
  /* and back to (A,B,C,D),(E,F,G,H) */
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128((__m128i *)&st[0], _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128((__m128i *)&st[4], _mm_alignr_epi8(dchg, feba, 8));
}

/* [h] is the OCaml chaining state (8 ints, each a 32-bit word); [s] holds
   [n] whole blocks from byte [off].  The caller checks the bounds. */
value bca_sha256_x86_blocks(value h, value s, value off, value n)
{
  uint32_t st[8];
  for (int i = 0; i < 8; i++) st[i] = (uint32_t)Long_val(Field(h, i));
  compress(st, (const unsigned char *)String_val(s) + Long_val(off), Long_val(n));
  for (int i = 0; i < 8; i++) Store_field(h, i, Val_long(st[i]));
  return Val_unit;
}

#else

value bca_sha256_x86_available(value unit)
{
  (void)unit;
  return Val_false;
}

/* unreachable: [Sha256] calls the kernel only when the probe said yes */
value bca_sha256_x86_blocks(value h, value s, value off, value n)
{
  (void)h; (void)s; (void)off; (void)n;
  abort();
}

#endif
