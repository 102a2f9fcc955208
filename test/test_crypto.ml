(* Tests for the simulated threshold-signature scheme (Appendix F interface)
   and SHA-256: the known answers over every kernel this host can run, the
   kernels against each other, and hashing from two domains at once. *)

module Threshold = Bca_crypto.Threshold
module Sha256 = Bca_crypto.Sha256

let setup () = Threshold.setup ~n:4 ~seed:42L

let test_share_validate () =
  let t, keys = setup () in
  let share = Threshold.sign keys.(1) ~tag:"echo/1/0" in
  Alcotest.(check bool) "valid" true (Threshold.share_validate t ~tag:"echo/1/0" share);
  Alcotest.(check int) "signer" 1 (Threshold.share_signer share)

let test_share_wrong_tag () =
  let t, keys = setup () in
  let share = Threshold.sign keys.(1) ~tag:"echo/1/0" in
  Alcotest.(check bool) "wrong tag rejected" false
    (Threshold.share_validate t ~tag:"echo/1/1" share)

let test_share_cross_setup () =
  let t, _ = setup () in
  let _, keys2 = Threshold.setup ~n:4 ~seed:43L in
  let share = Threshold.sign keys2.(0) ~tag:"m" in
  Alcotest.(check bool) "foreign key rejected" false (Threshold.share_validate t ~tag:"m" share)

let test_combine_threshold () =
  let t, keys = setup () in
  let tag = "echo3/2/1" in
  let shares k = List.init k (fun i -> Threshold.sign keys.(i) ~tag) in
  Alcotest.(check bool) "too few" true (Threshold.combine t ~k:3 ~tag (shares 2) = None);
  (match Threshold.combine t ~k:3 ~tag (shares 3) with
  | Some sigma ->
    Alcotest.(check bool) "verifies" true (Threshold.verify t ~tag sigma);
    Alcotest.(check int) "records k" 3 (Threshold.threshold_of sigma)
  | None -> Alcotest.fail "combine failed");
  (* duplicate shares from one signer do not count twice *)
  let dup = List.init 3 (fun _ -> Threshold.sign keys.(0) ~tag) in
  Alcotest.(check bool) "duplicates rejected" true (Threshold.combine t ~k:2 ~tag dup = None)

let test_combine_mixed_tags () =
  let t, keys = setup () in
  let s1 = Threshold.sign keys.(0) ~tag:"a" in
  let s2 = Threshold.sign keys.(1) ~tag:"b" in
  Alcotest.(check bool) "mismatched shares filtered" true
    (Threshold.combine t ~k:2 ~tag:"a" [ s1; s2 ] = None)

let test_verify_wrong_tag () =
  let t, keys = setup () in
  let tag = "x" in
  let shares = List.init 2 (fun i -> Threshold.sign keys.(i) ~tag) in
  let sigma = Option.get (Threshold.combine t ~k:2 ~tag shares) in
  Alcotest.(check bool) "wrong tag" false (Threshold.verify t ~tag:"y" sigma)

let test_dual_thresholds () =
  (* the same setup serves k = t+1 and k = 2t+1; certificates are not
     interchangeable because the threshold is baked in *)
  let t, keys = setup () in
  let tag = "m" in
  let shares = List.init 3 (fun i -> Threshold.sign keys.(i) ~tag) in
  let sig2 = Option.get (Threshold.combine t ~k:2 ~tag shares) in
  let sig3 = Option.get (Threshold.combine t ~k:3 ~tag shares) in
  Alcotest.(check bool) "different thresholds" true
    (Threshold.threshold_of sig2 = 2 && Threshold.threshold_of sig3 = 3);
  Alcotest.(check bool) "both verify" true
    (Threshold.verify t ~tag sig2 && Threshold.verify t ~tag sig3)

let tamper_resistance =
  QCheck2.Test.make ~count:200 ~name:"share for tag A never validates for tag B"
    QCheck2.Gen.(pair (small_string ~gen:printable) (small_string ~gen:printable))
    (fun (a, b) ->
      QCheck2.assume (a <> b);
      let t, keys = setup () in
      let share = Threshold.sign keys.(0) ~tag:a in
      not (Threshold.share_validate t ~tag:b share))

(* SHA-256 of the first [len] bytes of 0x00 0x01 0x02 ..., for len = 0 ..
   130, one line per length, computed once with coreutils [sha256sum].  The
   range crosses the one-block padding limit (55/56 bytes), the block
   boundary (63/64/65) and the second block's limit (119/120). *)
let length_table =
  [ "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d";
    "b413f47d13ee2fe6c845b2ee141af81de858df4ec549a58b7970bb96645bc8d2";
    "ae4b3280e56e2faf83f414a6e3dabe9d5fbe18976544c05fed121accb85b53fc";
    "054edec1d0211f624fed0cbca9d4f9400b0e491c43742af2c5b0abebf0c990d8";
    "08bb5e5d6eaac1049ede0893d30ed022b1a4d9b5b48db414871f51c9cb35283d";
    "17e88db187afd62c16e5debf3e6527cd006bc012bc90b51a810cd80c2d511f43";
    "57355ac3303c148f11aef7cb179456b9232cde33a818dfda2c2fcb9325749a6b";
    "8a851ff82ee7048ad09ec3847f1ddf44944104d2cbd17ef4e3db22c6785a0d45";
    "f8348e0b1df00833cbbbd08f07abdecc10c0efb78829d7828c62a7f36d0cc549";
    "1f825aa2f0020ef7cf91dfa30da4668d791c5d4824fc8e41354b89ec05795ab3";
    "78a6273103d17c39a0b6126e226cec70e33337f4bc6a38067401b54a33e78ead";
    "fff3a9bcdd37363d703c1c4f9512533686157868f0d4f16a0f02d0f1da24f9a2";
    "86eba947d50c2c01570fe1bb5ca552958dabbdbb59b0657f0f26e21ff011e5c7";
    "ab107f1bd632d3c3f5c724a99d024f7faa033f33c07696384b604bfe78ac352d";
    "7071fc3188fde7e7e500d4768f1784bede1a22e991648dcab9dc3219acff1d4c";
    "be45cb2605bf36bebde684841a28f0fd43c69850a3dce5fedba69928ee3a8991";
    "3e5718fea51a8f3f5baca61c77afab473c1810f8b9db330273b4011ce92c787e";
    "7a096cc12702bcfa647ee070d4f3ba4c2d1d715b484b55b825d0edba6545803b";
    "5f9a753613d87b8a17302373c4aee56faa310d3b24b6ae1862d673aa22e1790f";
    "e7aebf577f60412f0312d442c70a1fa6148c090bf5bab404caec29482ae779e8";
    "75aee9dcc9fbe7ddc9394f5bc5d38d9f5ad361f0520f7ceab59616e38f5950b5";
    "22cb4df00cddd6067ad5cfa2bba9857f21a06843e1a6e39ad1a68cb9a45ab8b7";
    "f6a954a68555187d88cd9a026940d15ab2a7e24c7517d21ceeb028e93c96f318";
    "1d64add2a6388367c9bc2d1f1b384b069a6ef382cdaaa89771dd103e28613a25";
    "b729ce724d9a48d3884dbfcbee1d3793d922b29fa9d639e7290af4978263772b";
    "b858da80d8a57dc546905fd147612ebddd3c9188620405d058f9ee5ab1e6bc52";
    "d78750726155a89c9131d0ecf2704b973b8710865bf9e831845de4f2dcbc19da";
    "dc27f8e8ee2d08a2bccbb2dbd6c8e07ffba194101fc3458c34ded55f72c0971a";
    "d09bea65dff48928a14b79741de3274b646f55ac898b71a66fa3eae2d9facd77";
    "f2192584b67da35dfc26f743e5f53bb0376046f899dc6dabd5e7b541ae86c32f";
    "4f23c2ca8c5c962e50cd31e221bfb6d0adca19111dca8e0c62598ff146dd19c4";
    "630dcd2966c4336691125448bbb25b4ff412a49c732db2c8abc1b8581bd710dd";
    "5d8fcfefa9aeeb711fb8ed1e4b7d5c8a9bafa46e8e76e68aa18adce5a10df6ab";
    "14cdbf171499f86bd18b262243d669067efbdbb5431a48289cf02f2b5448b3d4";
    "f12dd12340cb84e4d0d9958d62be7c59bb8f7243a7420fd043177ac542a26aaa";
    "5d7e2d9b1dcbc85e7c890036a2cf2f9fe7b66554f2df08cec6aa9c0a25c99c21";
    "f4d285f47a1e4959a445ea6528e5df3efab041fa15aad94db1e2600b3f395518";
    "a2fd0e15d72c9d18f383e40016f9ddc706673c54252084285aaa47a812552577";
    "4aba23aea5e2a91b7807cf3026cdd10a1c38533ce55332683d4ccb88456e0703";
    "5faa4eec3611556812c2d74b437c8c49add3f910f10063d801441f7d75cd5e3b";
    "753629a6117f5a25d338dff10f4dd3d07e63eecc2eaf8eabe773f6399706fe67";
    "40a1ed73b46030c8d7e88682078c5ab1ae5a2e524e066e8c8743c484de0e21e5";
    "c033843682818c475e187d260d5e2edf0469862dfa3bb0c116f6816a29edbf60";
    "17619ec4250ef65f083e2314ef30af796b6f1198d0fddfbb0f272930bf9bb991";
    "a8e960c769a9508d098451e3d74dd5a2ac6c861eb0341ae94e9fc273597278c9";
    "8ebfeb2e3a159e9f39ad7cc040e6678dade70d4f59a67d529fa76af301ab2946";
    "ef8a7781a95c32fa02ebf511eda3dc6e273be59cb0f9e20a4f84d54f41427791";
    "4dbdc2b2b62cb00749785bc84202236dbc3777d74660611b8e58812f0cfde6c3";
    "7509fe148e2c426ed16c990f22fe8116905c82c561756e723f63223ace0e147e";
    "a622e13829e488422ee72a5fc92cb11d25c3d0f185a1384b8138df5074c983bf";
    "3309847cee454b4f99dcfe8fdc5511a7ba168ce0b6e5684ef73f9030d009b8b5";
    "c4c6540a15fc140a784056fe6d9e13566fb614ecb2d9ac0331e264c386442acd";
    "90962cc12ae9cdae32d7c33c4b93194b11fac835942ee41b98770c6141c66795";
    "675f28acc0b90a72d1c3a570fe83ac565555db358cf01826dc8eefb2bf7ca0f3";
    "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59";
    "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562";
    "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03d1c12eac4d8f";
    "e03b18640c635b338a92b82cce4ff072f9f1aba9ac5261ee1340f592f35c0499";
    "bd2de8f5dd15c73f68dfd26a614080c2e323b2b51b1b5ed9d7933e535d223bda";
    "0ddde28e40838ef6f9853e887f597d6adb5f40eb35d5763c52e1e64d8ba3bfff";
    "4b5c2783c91ceccb7c839213bcbb6a902d7fe8c2ec866877a51f433ea17f3e85";
    "c89da82cbcd76ddf220e4e9091019b9866ffda72bee30de1effe6c99701a2221";
    "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488";
    "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108";
    "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781";
    "b6dfd259f6e0d07deb658a88148f8253f9bbbb74ddd6db3edbe159a56bc35073";
    "8fa5913b62847d42bb4b464e00a72c612d2ab0df2af0b9a96af8d323fa509077";
    "7ded979c0153ebb9ef28a15a314d0b27b41c4f8eed700b54974b48eb3ecaf91c";
    "1cf3aa651dcf35dbfe296e770ad7ebc4e00bcccd0224db296183dc952d0008c9";
    "5767d69a906d4860db9079eb7e90ab4a543e5cb032fce846554aef6ceb600e1d";
    "8189e3d54767d51e8d1942659a9e2905f9ec3ae72860c16a66e75b8cc9bd2087";
    "107de2bc788e11029f7851f8e1b0b5afb4e34379c709fc840689ebd3d1f51b5b";
    "169f6f093a9be82febe1a6a4471425697ec25d5040b472c5b1822aeea2625988";
    "2087ebd358ae3ea2a092fc19c2dfee57c5f0860296bc7b057c14e1227c5cb9d1";
    "182ab56f7739e43cee0b9ba1e92c4b2a81b088705516a5243910159744f21be9";
    "081f6c68899a48a1be455a55416104921d2fe4bdae696f4b72f9d9626a47915e";
    "5ce02376cc256861b78f87e34783814ba1aec6d09ab500d579ed8ee95c8afcc8";
    "b93e407404e3e95f20fd647365e0e7f46afabe9af1ff083af996135e00d54009";
    "e81fa832b37be8ed8f79da29987aa4d61310dcb14b2859dedf8fb1daa2541fd3";
    "c56705fea5b110b8dc63688533ced21167e628017387c885423b835a55edd5ef";
    "c2226285d08a245a17058ed2d24ad095b714f608ae364fddf119e0a7df890540";
    "f9c270da8793221a6809ac685fdd4f5387e0fe1ee6aaf01c74f1e0a719621614";
    "e69befd6ef7f685c36e343ac1702d87ad6a0e4ac8c0d5c521d04aad4ef0b7458";
    "4e3033562ad74a7d43eb5ff5fc2382622c6307cb10e245ad62da77c4c63cb178";
    "2ea17629472564a59e5eb845a2cdd04f442df2ff26bcc866e400f77158d612a1";
    "b90223df74dd49a8a1461f340f2d7a90f96903ccbb5bc3c74ea3658fc8948b20";
    "e0209f42b927ec9c0f6d6a76007ed540e9bdd6e427b3368a1ea6c5e7565972dd";
    "10d9bd424114319c0999adf6288f74060cd8918ef1228827a6269b2bf0f0880c";
    "7d1978a65ac94dbbcdc62e3d81850299fe157dd9b7bd9e01b170156210d2815a";
    "e052dff9e1c94aaa49556f86fad55029a4875839fda57f5005f4c4403876b256";
    "58d29459b2130a2e151252d408b95e6dac424c564062eb911cc76440cb926ca0";
    "4e4530c392316f598e1bd07f32166380a8f712a33a48e9eb4247131ec5dc05d3";
    "a09c9d3e42342c7dea44edb4aeb48cf6727cacd8032a12cf77a25829fc249d32";
    "eb978d0f1ac03ce5c3510b5f4a16073a7a2bdc15c4ab7777dcf01030cc316667";
    "7d1905a3ace827ea1ac51c4fa08c281ed3be87e7f4e928d696bfde35c8f2dc0f";
    "08359b108fa567f5dcf319fa3434da6abbc1d595f426372666447f09cc5a87dc";
    "a7b3830ffab0f2bbabbef6df0b169a7917008bf238880bbf8c20b8e000077312";
    "b4f5d9b1555994c5ebaebd82918d560a3bf82962a171a1614e7551939e943366";
    "014ecaea1b378900f1212898c6ddb01565d81af1d0ef78df5e28d46e9caf7cfc";
    "bce0aff19cf5aa6a7469a30d61d04e4376e4bbf6381052ee9e7f33925c954d52";
    "4565d7b898ccea3139ad260f9273115f806b30079d7683218c4e3ecd43af3b33";
    "ddadeb660fe8902c9fb2db9b6cf237c9ce5b31753398085c4367eb5910b9cc13";
    "c15a8928131f6687dd10f3c115ddf8d7c8f2df7e18d12c08c4fd16f666ce60ba";
    "ae8e3d799b1353a39815f90eceebefa265cc448fe39faf2008cb20784cb2df9f";
    "98545371a3d9981abe5ab4a32a1d7b2fadd9801d89da52a94a4f78a42740d21c";
    "6323dce2f8b3a04dcea8d205602348c40403cb200c677eb1a1c0fe37edb6eb2f";
    "8150f7c5da910d709ff02ddf85dd293c6a2672633de8cda30f2e0aa58b14b0c4";
    "44d21db70716bd7644cb0d819fa6791805ebc526ea32996a60e41dc753fcfafc";
    "b9b7c375cca45db19466ebd0fe7c9e147948cc42c1c90f0579728cfb2651956d";
    "a47a551b01e55aaaa015531a4fa26a666f1ebd4ba4573898de712b8b5e0ca7e9";
    "60780e9451bdc43cf4530ffc95cbb0c4eb24dae2c39f55f334d679e076c08065";
    "09373f127d34e61dbbaa8bc4499c87074f2ddb10e1b465f506d7d70a15011979";
    "13aaa9b5fb739cdb0e2af99d9ac0a409390adc4d1cb9b41f1ef94f8552060e92";
    "5b0a32f1219524f5d72b00ba1a1b1c09a05ff10c83bb7a86042e42988f2afc06";
    "32796a0a246ea67eb785eda2e045192b9d6e40b9fe2047b21ef0cee929039651";
    "da9ab8930992a9f65eccec4c310882cab428a708e6c899181046a8c73af00855";
    "9c94557382c966753c8cab0957eaedbe1d737b5fcb35c56c220ddd36f8a2d351";
    "d32ab00929cb935b79d44e74c5a745db460ff794dea3b79be40c1cc5cf5388ef";
    "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6";
    "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c";
    "335a461692b30bba1d647cc71604e88e676c90e4c22455d0b8c83f4bd7c8ac9b";
    "3d08c4d7bdda7ec922b0741df357de46e7bd102f9ab7a5c67624ab58da6d9d75";
    "cc63be92e3a900cd067da89473b61b40579b54ef54f8305c2ffcc893743792e9";
    "865447fc4fae01471f2fc973bfb448de00217521ef02e3214d5177ea89c3ef31";
    "3daa582f9563601e290f3cd6d304bff7e25a9ee42a34ffbac5cf2bf40134e0d4";
    "5dda7cb7c2282a55676f8ad5c448092f4a9ebd65338b07ed224fcd7b6c73f5ef";
    "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976";
    "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5";
    "5099c6a56203f9687f7d33f4bfdf576d31dc91f6b695ecea38b2770c87631135";
    "8d39b60b9c767c58975b270c1d6b13c9b4507e5aee7ad496a3528e4c7f880721" ]

let test_sha256_fips () =
  List.iter
    (fun (kernel, digest) ->
      List.iter
        (fun (name, msg, expected) ->
          Alcotest.(check string) (kernel ^ ": " ^ name) expected (Sha256.to_hex (digest msg)))
        [ ("empty", "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
          ("abc", "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
          ( "448-bit two-block message",
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
          ( "one million 'a'",
            String.make 1_000_000 'a',
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0" ) ])
    Sha256.kernels

let test_sha256_lengths () =
  List.iter
    (fun (kernel, digest) ->
      List.iteri
        (fun len expected ->
          Alcotest.(check string)
            (Printf.sprintf "%s: length %d" kernel len)
            expected
            (Sha256.to_hex (digest (String.init len Char.chr))))
        length_table)
    Sha256.kernels;
  Alcotest.(check int) "131 lengths" 131 (List.length length_table)

let test_sha256_kernels () =
  let names = List.map fst Sha256.kernels in
  Alcotest.(check string) "the portable kernel is always there" "ocaml" (List.hd names);
  let _, last = List.nth Sha256.kernels (List.length names - 1) in
  Alcotest.(check bool) "digest is the last kernel" true (last == Sha256.digest)

let pattern len = String.init len (fun i -> Char.chr (((i * 131) + (len * 7)) land 0xFF))

(* Every length across each 55/56/63/64-byte padding edge, up to past the
   log's ~4.4 KB batch. *)
let test_sha256_differential () =
  let reference = List.assoc "ocaml" Sha256.kernels in
  for len = 0 to 4_500 do
    let s = pattern len in
    let expected = reference s in
    List.iter
      (fun (kernel, digest) ->
        if digest s <> expected then
          Alcotest.failf "%s differs from ocaml at length %d" kernel len)
      Sha256.kernels
  done

let kernels_agree =
  QCheck2.Test.make ~count:200 ~name:"every kernel gives the portable kernel's digest"
    QCheck2.Gen.(string_size ~gen:char (int_bound 16_384))
    (fun s ->
      let expected = List.assoc "ocaml" Sha256.kernels s in
      List.for_all (fun (_, digest) -> digest s = expected) Sha256.kernels)

(* The kernels keep no state between calls: two domains hashing at once,
   with every kernel, get the digests one domain gets alone. *)
let test_sha256_domains () =
  let inputs = List.init 64 (fun i -> pattern ((i * 97) + 1)) in
  let expected = List.map Sha256.digest inputs in
  let run () =
    List.concat_map
      (fun (_, digest) -> List.init 10 (fun _ -> List.map digest inputs))
      Sha256.kernels
  in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  List.iter
    (fun rounds ->
      List.iter (fun got -> Alcotest.(check (list string)) "same digests" expected got) rounds)
    [ Domain.join d1; Domain.join d2 ]

let test_sha256_raw () =
  let d = Sha256.digest "abc" in
  Alcotest.(check int) "raw digest size" Sha256.size (String.length d);
  Alcotest.(check int) "32 bytes" 32 Sha256.size;
  Alcotest.(check string) "to_hex of raw bytes" "00ff10" (Sha256.to_hex "\x00\xff\x10")

let () =
  (* outside any test case, so the log shows whether the SHA-extensions
     kernel was covered: that depends on the CPU the suite ran on *)
  Printf.printf "sha256 kernels on this host: %s\n%!"
    (String.concat ", " (List.map fst Sha256.kernels));
  Alcotest.run "crypto"
    [ ( "threshold",
        [ Alcotest.test_case "share validate" `Quick test_share_validate;
          Alcotest.test_case "wrong tag" `Quick test_share_wrong_tag;
          Alcotest.test_case "cross setup" `Quick test_share_cross_setup;
          Alcotest.test_case "combine thresholds" `Quick test_combine_threshold;
          Alcotest.test_case "mixed tags" `Quick test_combine_mixed_tags;
          Alcotest.test_case "verify wrong tag" `Quick test_verify_wrong_tag;
          Alcotest.test_case "dual thresholds" `Quick test_dual_thresholds;
          QCheck_alcotest.to_alcotest tamper_resistance ] );
      ( "sha256",
        [ Alcotest.test_case "FIPS 180-4 vectors" `Quick test_sha256_fips;
          Alcotest.test_case "lengths 0..130 against sha256sum" `Quick test_sha256_lengths;
          Alcotest.test_case "raw digest and hex" `Quick test_sha256_raw;
          Alcotest.test_case "kernels on this host" `Quick test_sha256_kernels;
          Alcotest.test_case "kernels agree on lengths 0..4500" `Quick test_sha256_differential;
          QCheck_alcotest.to_alcotest kernels_agree;
          Alcotest.test_case "two domains at once" `Quick test_sha256_domains ] ) ]
