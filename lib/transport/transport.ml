(* lint: allow-file determinism -- real-socket transport; wall-clock deadlines bound connect retries, flushes and receive timeouts and never feed protocol state *)
module Wire = Bca_wire.Wire
module Rng = Bca_util.Rng
module Pool = Bca_netsim.Pool
module Trace = Bca_obs.Trace
module Event = Bca_obs.Event

type stats = {
  mutable frames_out : int;
  mutable bytes_out : int;
  mutable frames_in : int;
  mutable bytes_in : int;
  mutable writes : int;
  mutable retries : int;
  mutable drops : int;
}

let stats_zero () =
  { frames_out = 0; bytes_out = 0; frames_in = 0; bytes_in = 0; writes = 0; retries = 0; drops = 0 }

type t = {
  me : int;
  n : int;
  kind : string;
  send : dst:int -> string -> unit;
  recv : timeout_s:float -> Wire.frame option;
  recv_view : timeout_s:float -> Wire.view option;
  flush : timeout_s:float -> bool;
  close : unit -> unit;
  reset : dst:int -> unit;
  stats : stats;
}

(* ---- in-memory loopback -------------------------------------------- *)

module Loopback = struct
  type hub = {
    h_n : int;
    h_rng : Rng.t;
    h_pool : (int * Wire.frame) Pool.t;
    h_stats : stats array;
  }

  let create_hub ?(seed = 0xB0CA1L) ~n () =
    { h_n = n;
      h_rng = Rng.create seed;
      h_pool = Pool.create ();
      h_stats = Array.init n (fun _ -> stats_zero ()) }

  let pending h = Pool.length h.h_pool

  let record_in h ~dst f =
    let st = h.h_stats.(dst) in
    st.frames_in <- st.frames_in + 1;
    st.bytes_in <- st.bytes_in + Wire.frame_bytes f

  let step h =
    if Pool.is_empty h.h_pool then None
    else begin
      let i = Rng.int h.h_rng (Pool.length h.h_pool) in
      let ((dst, f) as slot) = Pool.swap_remove h.h_pool i in
      record_in h ~dst f;
      Some slot
    end

  let endpoint h ~me =
    if not (Bca_util.Bounds.index_ok ~len:h.h_n me) then
      invalid_arg "Transport.Loopback.endpoint: pid out of range";
    let st = h.h_stats.(me) in
    let send ~dst s =
      if not (Bca_util.Bounds.index_ok ~len:h.h_n dst) then
        invalid_arg "Transport.Loopback.send: dst out of range";
      st.frames_out <- st.frames_out + 1;
      st.bytes_out <- st.bytes_out + String.length s;
      match Wire.decode_frame s ~pos:0 with
      | Ok (f, _) -> Pool.add h.h_pool (dst, f)
      | Error _ -> st.drops <- st.drops + 1
    in
    let recv ~timeout_s:_ =
      (* uniformly random among the frames destined to [me], same RNG as
         [step] - a deterministic single-party delivery schedule *)
      let len = Pool.length h.h_pool in
      let mine = ref 0 in
      for i = 0 to len - 1 do
        if fst (Pool.get h.h_pool i) = me then incr mine
      done;
      if !mine = 0 then None
      else begin
        let k = ref (Rng.int h.h_rng !mine) in
        let slot = ref (-1) in
        (try
           for i = 0 to len - 1 do
             if fst (Pool.get h.h_pool i) = me then
               if !k = 0 then begin
                 slot := i;
                 raise Exit
               end
               else decr k
           done
         with Exit -> ());
        let _, f = Pool.swap_remove h.h_pool !slot in
        record_in h ~dst:me f;
        Some f
      end
    in
    { me;
      n = h.h_n;
      kind = "loopback";
      send;
      recv;
      recv_view = (fun ~timeout_s -> Option.map Wire.view_of_frame (recv ~timeout_s));
      flush = (fun ~timeout_s:_ -> true);
      close = (fun () -> ());
      reset = (fun ~dst:_ -> ());
      stats = st }
end

(* ---- socket engine (Unix-domain and TCP) ---------------------------- *)

module Socket = struct
  type out_state =
    | Idle  (** no connection; will (re)connect when there is data *)
    | Connecting of Unix.file_descr
    | Up of Unix.file_descr
    | Dead  (** given up after [max_retries]; sends to it are dropped *)

  (* Outbound frames for one peer live contiguously in [p_out]:

       [p_start - p_head_sent, p_start)   sent prefix of the head frame,
                                          kept for rewind on reconnect
       [p_start, p_end)                   unsent bytes

     [p_lens] holds the length of every frame with at least one unsent
     byte, head first.  A coalescing flush hands the kernel the whole
     [p_start, p_end) span in one [write]; the per-frame accounting only
     pops [p_lens] as frame boundaries are crossed. *)
  type peer = {
    p_pid : int;
    p_addr : Unix.sockaddr;
    mutable p_state : out_state;
    mutable p_out : Bytes.t;
    mutable p_start : int;
    mutable p_end : int;
    p_lens : int Queue.t;
    mutable p_head_sent : int;  (** bytes of the head frame already written *)
    mutable p_retries : int;
    mutable p_next_attempt : float;
  }

  let unsent p = p.p_end - p.p_start

  let enqueue p s =
    let len = String.length s in
    let keep_from = p.p_start - p.p_head_sent in
    if p.p_end + len > Bytes.length p.p_out then begin
      let live = p.p_end - keep_from in
      if live + len <= Bytes.length p.p_out then
        (* compact: slide the live region to the front *)
        Bytes.blit p.p_out keep_from p.p_out 0 live
      else begin
        let cap = ref (max 4096 (2 * Bytes.length p.p_out)) in
        while live + len > !cap do
          cap := 2 * !cap
        done;
        let nb = Bytes.create !cap in
        Bytes.blit p.p_out keep_from nb 0 live;
        p.p_out <- nb
      end;
      p.p_start <- p.p_head_sent;
      p.p_end <- live
    end;
    Bytes.blit_string s 0 p.p_out p.p_end len;
    p.p_end <- p.p_end + len;
    Queue.push len p.p_lens

  type conn = { c_fd : Unix.file_descr; c_reader : Wire.Reader.t }

  type sock = {
    s_me : int;
    s_n : int;
    s_listen : Unix.file_descr;
    s_peers : peer array;
    mutable s_conns : conn list;
    s_inbox : Wire.view Queue.t;
    s_stats : stats;
    s_tracer : Trace.t;
    s_tracing : bool;
    s_read_buf : Bytes.t;
    s_coalesce : bool;
    s_max_body : int;
    s_max_queue : int;
    s_backoff_base : float;
    s_backoff_cap : float;
    s_max_retries : int;
    s_unix_path : string option;
    mutable s_closed : bool;
  }

  let trace s ~peer ~op ~bytes =
    if s.s_tracing then
      Trace.emit s.s_tracer (Event.Transport { pid = s.s_me; peer; op; bytes })

  let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

  let set_nodelay fd =
    (* best effort: meaningless (and an error) on Unix-domain sockets *)
    try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

  let give_up s p =
    p.p_state <- Dead;
    s.s_stats.drops <- s.s_stats.drops + Queue.length p.p_lens;
    Queue.clear p.p_lens;
    p.p_start <- 0;
    p.p_end <- 0;
    p.p_head_sent <- 0;
    trace s ~peer:p.p_pid ~op:"give_up" ~bytes:0

  let backoff s ~retries =
    let d = s.s_backoff_base *. (2. ** float_of_int (retries - 1)) in
    Float.min d s.s_backoff_cap

  (* A completed handshake resets the whole backoff state - the retry
     counter AND the pending-attempt timestamp.  Centralized so no success
     path can forget one of the two: a peer that flaps repeatedly but
     reconnects successfully in between must restart from the base
     backoff every time, never accumulate toward [give_up]. *)
  let mark_up s p fd =
    p.p_state <- Up fd;
    p.p_retries <- 0;
    p.p_next_attempt <- 0.;
    trace s ~peer:p.p_pid ~op:"connect" ~bytes:0

  (* A frame arrived from a peer we had given up on: it is demonstrably
     alive again (restarted with the same node id on a fresh socket), so
     resurrect the outgoing side.  Without this, [Dead] is permanent and a
     recovered node could hear the cluster but never be answered. *)
  let revive_peer s sender =
    if sender >= 0 && sender < s.s_n && sender <> s.s_me then begin
      let p = s.s_peers.(sender) in
      match p.p_state with
      | Dead ->
        p.p_state <- Idle;
        p.p_retries <- 0;
        p.p_next_attempt <- 0.;
        trace s ~peer:sender ~op:"revive" ~bytes:0
      | Idle | Connecting _ | Up _ -> ()
    end

  (* The connection failed (connect error, write error, refused): close it,
     rewind the partially written head frame so the next connection resends
     it whole, and either schedule a delayed reattempt or give the peer up. *)
  let schedule_retry s p ~now =
    (match p.p_state with
    | Connecting fd | Up fd -> close_fd fd
    | Idle | Dead -> ());
    p.p_start <- p.p_start - p.p_head_sent;
    p.p_head_sent <- 0;
    p.p_retries <- p.p_retries + 1;
    if p.p_retries > s.s_max_retries then give_up s p
    else begin
      p.p_state <- Idle;
      s.s_stats.retries <- s.s_stats.retries + 1;
      p.p_next_attempt <- now +. backoff s ~retries:p.p_retries;
      trace s ~peer:p.p_pid ~op:"retry" ~bytes:0
    end

  let rec try_write s p ~now =
    match p.p_state with
    | Up fd when unsent p > 0 -> begin
      (* coalesced: the whole pending span in one syscall; per-message
         mode (the bench baseline) stops at the head frame's boundary *)
      let chunk =
        if s.s_coalesce then unsent p
        else
          match Queue.peek_opt p.p_lens with
          | Some head_len -> min (unsent p) (head_len - p.p_head_sent)
          | None -> unsent p
      in
      match Unix.write fd p.p_out p.p_start chunk with
      | k ->
        p.p_start <- p.p_start + k;
        s.s_stats.writes <- s.s_stats.writes + 1;
        (* cross off every frame the span completed *)
        let sent = ref (p.p_head_sent + k) in
        let crossing = ref true in
        while !crossing do
          match Queue.peek_opt p.p_lens with
          | Some head_len when !sent >= head_len ->
            ignore (Queue.pop p.p_lens);
            sent := !sent - head_len
          | Some _ | None -> crossing := false
        done;
        p.p_head_sent <- !sent;
        if Queue.is_empty p.p_lens then begin
          p.p_start <- 0;
          p.p_end <- 0;
          p.p_head_sent <- 0
        end;
        if k = chunk && unsent p > 0 then try_write s p ~now
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> schedule_retry s p ~now
    end
    | Idle | Connecting _ | Up _ | Dead -> ()

  let start_connect s p ~now =
    let fd = Unix.socket (Unix.domain_of_sockaddr p.p_addr) Unix.SOCK_STREAM 0 in
    Unix.set_nonblock fd;
    set_nodelay fd;
    match Unix.connect fd p.p_addr with
    | () -> mark_up s p fd
    | exception Unix.Unix_error ((EINPROGRESS | EWOULDBLOCK | EAGAIN), _, _) ->
      p.p_state <- Connecting fd
    | exception Unix.Unix_error (_, _, _) ->
      p.p_state <- Connecting fd;
      (* reuse the retry path: it closes the fd and applies backoff *)
      schedule_retry s p ~now

  let drop_conn s c ~op =
    close_fd c.c_fd;
    s.s_conns <- List.filter (fun c' -> c'.c_fd != c.c_fd) s.s_conns;
    trace s ~peer:(-1) ~op ~bytes:0

  let rec drain_reader s c =
    match Wire.Reader.next_view c.c_reader with
    | Ok None -> ()
    | Ok (Some v) ->
      if (not (Bca_util.Bounds.index_ok ~len:s.s_n v.Wire.v_sender)) || v.Wire.v_sender = s.s_me
      then begin
        s.s_stats.drops <- s.s_stats.drops + 1;
        trace s ~peer:v.Wire.v_sender ~op:"drop" ~bytes:(Wire.view_bytes v)
      end
      else begin
        s.s_stats.frames_in <- s.s_stats.frames_in + 1;
        s.s_stats.bytes_in <- s.s_stats.bytes_in + Wire.view_bytes v;
        trace s ~peer:v.Wire.v_sender ~op:"rx" ~bytes:(Wire.view_bytes v);
        revive_peer s v.Wire.v_sender;
        Queue.push v s.s_inbox
      end;
      drain_reader s c
    | Error _ ->
      (* framing on a corrupt stream cannot be trusted: drop the
         connection, the sender's reconnect logic re-establishes it *)
      s.s_stats.drops <- s.s_stats.drops + 1;
      drop_conn s c ~op:"drop"

  let read_conn s c =
    let cap = Bytes.length s.s_read_buf in
    match Unix.read c.c_fd s.s_read_buf 0 cap with
    | 0 -> drop_conn s c ~op:"close"
    | k ->
      Wire.Reader.feed c.c_reader s.s_read_buf ~pos:0 ~len:k;
      drain_reader s c
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> drop_conn s c ~op:"close"

  let rec accept_loop s =
    match Unix.accept s.s_listen with
    | fd, _ ->
      Unix.set_nonblock fd;
      set_nodelay fd;
      s.s_conns <- { c_fd = fd; c_reader = Wire.Reader.create ~max_body:s.s_max_body () } :: s.s_conns;
      trace s ~peer:(-1) ~op:"accept" ~bytes:0;
      accept_loop s
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error (_, _, _) -> ()

  (* One [select] round: complete / start connections, accept, read, write.
     All network progress happens here - [send]/[recv]/[flush] are loops
     around this. *)
  let pump s ~timeout_s =
    if not s.s_closed then begin
      let now = Unix.gettimeofday () in
      Array.iter
        (fun p ->
          if
            p.p_pid <> s.s_me && (match p.p_state with Idle -> true | _ -> false)
            && unsent p > 0
            && now >= p.p_next_attempt
          then start_connect s p ~now)
        s.s_peers;
      (* never sleep past the earliest pending reconnect *)
      let tmo =
        Array.fold_left
          (fun acc p ->
            match p.p_state with
            | Idle when unsent p > 0 ->
              Float.min acc (Float.max 0. (p.p_next_attempt -. now))
            | _ -> acc)
          (Float.max 0. timeout_s) s.s_peers
      in
      let reads = s.s_listen :: List.map (fun c -> c.c_fd) s.s_conns in
      let writes =
        Array.fold_left
          (fun acc p ->
            match p.p_state with
            | Connecting fd -> fd :: acc
            | Up fd when unsent p > 0 -> fd :: acc
            | _ -> acc)
          [] s.s_peers
      in
      match Unix.select reads writes [] tmo with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | r, w, _ ->
        if List.memq s.s_listen r then accept_loop s;
        List.iter (fun c -> if List.memq c.c_fd r then read_conn s c) s.s_conns;
        let now = Unix.gettimeofday () in
        Array.iter
          (fun p ->
            match p.p_state with
            | Connecting fd when List.memq fd w -> begin
              match Unix.getsockopt_error fd with
              | None ->
                mark_up s p fd;
                try_write s p ~now
              | Some _ -> schedule_retry s p ~now
            end
            | Up fd when List.memq fd w -> try_write s p ~now
            | _ -> ())
          s.s_peers
    end

  let all_flushed s =
    Array.for_all
      (fun p -> p.p_pid = s.s_me || (match p.p_state with Dead -> true | _ -> false) || unsent p = 0)
      s.s_peers

  let kind_of_addr = function
    | Unix.ADDR_UNIX _ -> "unix"
    | Unix.ADDR_INET _ -> "tcp"

  let endpoint ?(tracer = Trace.null) ?(max_body = Wire.default_max_body)
      ?(max_queue_bytes = 1 lsl 20) ?(backoff_base_s = 0.01) ?(backoff_cap_s = 2.0)
      ?(max_retries = 20) ?(coalesce = true) ~addrs ~me () =
    (* a peer closing its end must surface as EPIPE on write (handled by the
       reconnect logic), not kill the process *)
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
    let n = Array.length addrs in
    if not (Bca_util.Bounds.index_ok ~len:n me) then
      invalid_arg "Transport.Socket.endpoint: pid out of range";
    let addr = addrs.(me) in
    let unix_path =
      match addr with
      | Unix.ADDR_UNIX path ->
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Some path
      | Unix.ADDR_INET _ -> None
    in
    let listen_fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    Unix.set_nonblock listen_fd;
    (match addr with
    | Unix.ADDR_INET _ -> Unix.setsockopt listen_fd Unix.SO_REUSEADDR true
    | Unix.ADDR_UNIX _ -> ());
    Unix.bind listen_fd addr;
    Unix.listen listen_fd (max 8 (2 * n));
    let s =
      { s_me = me;
        s_n = n;
        s_listen = listen_fd;
        s_peers =
          Array.init n (fun pid ->
              { p_pid = pid;
                p_addr = addrs.(pid);
                p_state = Idle;
                p_out = Bytes.create 4096;
                p_start = 0;
                p_end = 0;
                p_lens = Queue.create ();
                p_head_sent = 0;
                p_retries = 0;
                p_next_attempt = 0. });
        s_conns = [];
        s_inbox = Queue.create ();
        s_stats = stats_zero ();
        s_tracer = tracer;
        s_tracing = Trace.enabled tracer;
        s_read_buf = Bytes.create 65536;
        s_coalesce = coalesce;
        s_max_body = max_body;
        s_max_queue = max_queue_bytes;
        s_backoff_base = backoff_base_s;
        s_backoff_cap = backoff_cap_s;
        s_max_retries = max_retries;
        s_unix_path = unix_path;
        s_closed = false }
    in
    let send ~dst frame_str =
      if not (Bca_util.Bounds.index_ok ~len:n dst) then
        invalid_arg "Transport.Socket.send: dst out of range";
      let len = String.length frame_str in
      s.s_stats.frames_out <- s.s_stats.frames_out + 1;
      s.s_stats.bytes_out <- s.s_stats.bytes_out + len;
      trace s ~peer:dst ~op:"tx" ~bytes:len;
      if dst = me then begin
        match Wire.decode_frame_view ~max_body:s.s_max_body frame_str ~pos:0 with
        | Ok (v, _) ->
          s.s_stats.frames_in <- s.s_stats.frames_in + 1;
          s.s_stats.bytes_in <- s.s_stats.bytes_in + len;
          Queue.push v s.s_inbox
        | Error _ -> s.s_stats.drops <- s.s_stats.drops + 1
      end
      else begin
        let p = s.s_peers.(dst) in
        match p.p_state with
        | Dead ->
          s.s_stats.drops <- s.s_stats.drops + 1;
          trace s ~peer:dst ~op:"drop" ~bytes:len
        | _ ->
          enqueue p frame_str;
          (* backpressure: a slow or absent peer stalls the sender (with a
             bounded memory footprint) until it drains or is given up.  The
             stall deadline covers the case the retry counter cannot: a peer
             whose connection is Up but that never reads, so writes only ever
             hit EAGAIN and no error fires [schedule_retry].  Deadline is
             2x backoff_cap so an Idle peer sitting out its longest backoff
             window is not given up while retries remain. *)
          let stall_s = 2. *. s.s_backoff_cap in
          let deadline = ref (Unix.gettimeofday () +. stall_s) in
          let low_water = ref (unsent p) in
          while unsent p > s.s_max_queue && (match p.p_state with Dead -> false | _ -> true) do
            pump s ~timeout_s:0.02;
            if unsent p < !low_water then begin
              low_water := unsent p;
              deadline := Unix.gettimeofday () +. stall_s
            end
            else if Unix.gettimeofday () >= !deadline then give_up s p
          done
      end
    in
    let recv_view ~timeout_s =
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec loop () =
        if not (Queue.is_empty s.s_inbox) then Some (Queue.pop s.s_inbox)
        else begin
          let now = Unix.gettimeofday () in
          if now >= deadline then None
          else begin
            pump s ~timeout_s:(Float.min 0.05 (deadline -. now));
            loop ()
          end
        end
      in
      match loop () with
      | Some _ as r -> r
      | None ->
        (* one zero-timeout pump so [recv ~timeout_s:0.] still polls *)
        pump s ~timeout_s:0.;
        if Queue.is_empty s.s_inbox then None else Some (Queue.pop s.s_inbox)
    in
    let recv ~timeout_s = Option.map Wire.frame_of_view (recv_view ~timeout_s) in
    let flush ~timeout_s =
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec loop () =
        if all_flushed s then true
        else if Unix.gettimeofday () >= deadline then false
        else begin
          pump s ~timeout_s:0.05;
          loop ()
        end
      in
      loop ()
    in
    let close () =
      if not s.s_closed then begin
        s.s_closed <- true;
        trace s ~peer:(-1) ~op:"close" ~bytes:0;
        close_fd s.s_listen;
        List.iter (fun c -> close_fd c.c_fd) s.s_conns;
        s.s_conns <- [];
        Array.iter
          (fun p ->
            match p.p_state with
            | Connecting fd | Up fd -> close_fd fd
            | Idle | Dead -> ())
          s.s_peers;
        match s.s_unix_path with
        | Some path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
        | None -> ()
      end
    in
    let reset ~dst =
      let p = s.s_peers.(dst) in
      match p.p_state with
      | Connecting fd | Up fd ->
        close_fd fd;
        p.p_start <- p.p_start - p.p_head_sent;
        p.p_head_sent <- 0;
        p.p_state <- Idle;
        p.p_next_attempt <- 0.;
        trace s ~peer:dst ~op:"reset" ~bytes:0
      | Idle | Dead -> ()
    in
    { me; n; kind = kind_of_addr addr; send; recv; recv_view; flush; close; reset; stats = s.s_stats }

  let unix_addrs ~dir ~n =
    Array.init n (fun pid -> Unix.ADDR_UNIX (Filename.concat dir (Printf.sprintf "node-%d.sock" pid)))

  let tcp_addrs ~ports =
    Array.map (fun port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)) ports

  let pick_tcp_ports ~n =
    (* bind them all before closing any, so the kernel can't hand the same
       ephemeral port out twice *)
    let fds =
      Array.init n (fun _ ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
          fd)
    in
    let ports =
      Array.map
        (fun fd ->
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, port) -> port
          | Unix.ADDR_UNIX _ -> invalid_arg "pick_tcp_ports: INET socket with unix name")
        fds
    in
    Array.iter close_fd fds;
    ports
end
