(* WAL-shipping replication: primary hub, tailing followers, the
   epoch-aware router.

   The headline property extends apply == rebuild across the wire: a
   follower replaying the primary's delta stream through its own
   engine must be byte-identical to the primary at every epoch, and
   recovery of the follower's store must land on the same bytes
   (replication == recovery == hot-swap). Around it: hub catch-up mode
   selection (nothing / backlog suffix / snapshot), slow-follower
   backpressure (drop, never stall the primary), follower crash with a
   torn WAL tail + re-subscribe + reconverge, epoch-minimum routing
   with failover, and all of it at once under seeded network faults
   on the replication stream and the client link. CI runs this binary
   under AQV_DOMAINS=1 and =2. *)

module Prng = Aqv_util.Prng
module Wire = Aqv_util.Wire
module Metrics = Aqv_util.Metrics
module Q = Aqv_num.Rational
module Signer = Aqv_crypto.Signer
module Record = Aqv_db.Record
module Table = Aqv_db.Table
module Workload = Aqv_db.Workload
module Store = Aqv_store.Store
module Serror = Aqv_store.Error
module Engine = Aqv_serve.Engine
module Stats = Aqv_serve.Stats
module Frame_io = Aqv_serve.Frame_io
module Roundtrip = Aqv_serve.Roundtrip
module Hub = Aqv_serve.Hub
module Follower = Aqv_cluster.Follower
module Router = Aqv_cluster.Router
module Fault_net = Aqv_ref.Fault_net
open Aqv

(* feeders write to sockets whose peers tests close deliberately *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let check = Alcotest.check

(* one counter of an engine's stats, 0 if absent *)
let stat s key = Option.value (List.assoc_opt key (Stats.to_assoc s)) ~default:0
let hex = Aqv_util.Hex.encode

(* Deterministic fake signer (see test_store.ml): signature identity is
   digest identity, cheap enough for property tests. *)
let fake_keypair =
  {
    Signer.algorithm = Signer.Rsa;
    sign =
      (fun d ->
        Metrics.add_sign ();
        "sig:" ^ d);
    verify = (fun d s -> String.equal s ("sig:" ^ d));
    signature_size = 36;
    public = Signer.Unverifiable;
  }

let save_bytes index =
  let w = Wire.writer () in
  Ifmh.save w index;
  Wire.contents w

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "aqv-cluster-%d-%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists d then rm_rf d;
    Unix.mkdir d 0o755;
    d

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let await deadline_s pred =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* Random change sequences against the evolving id set (test_store). *)
let gen_changes ~dims prng table k =
  let ids = ref (Array.to_list (Array.map Record.id (Table.records table))) in
  let next_id =
    ref
      (Array.fold_left
         (fun acc r -> max acc (Record.id r + 1))
         1000 (Table.records table))
  in
  let mk_attrs () =
    if dims = 1 then
      [| Q.of_int (Prng.int_in prng (-50) 50); Q.of_int (Prng.int_in prng 0 50) |]
    else Array.init dims (fun _ -> Q.of_int (Prng.int_in prng 0 20))
  in
  let pick () = List.nth !ids (Prng.int prng (List.length !ids)) in
  List.init k (fun _ ->
      match Prng.int prng 3 with
      | 0 ->
        let id = !next_id in
        incr next_id;
        ids := id :: !ids;
        Update.Insert (Record.make ~id ~attrs:(mk_attrs ()) ())
      | 1 when List.length !ids > 1 ->
        let id = pick () in
        ids := List.filter (fun i -> i <> id) !ids;
        Update.Delete id
      | _ -> Update.Modify (Record.make ~id:(pick ()) ~attrs:(mk_attrs ()) ()))

let gen_table ~dims prng =
  let n = if dims = 1 then 5 + Prng.int prng 6 else 4 + Prng.int prng 3 in
  if dims = 1 then Workload.lines_1d ~slope_range:40 ~intercept_range:40 ~n prng
  else Workload.scored ~attr_range:20 ~n ~dims prng

(* A delta chain from a fresh epoch-1 index: [(base, delta, updated)]
   per step, signatures attached by the owner. *)
let gen_chain ~scheme ~dims prng k =
  let table = gen_table ~dims prng in
  let index1 = Ifmh.build ~scheme ~epoch:1 table fake_keypair in
  let tbl = ref table and index = ref index1 in
  let steps =
    List.init k (fun _ ->
        let changes = gen_changes ~dims prng !tbl (1 + Prng.int prng 2) in
        let updated = Ifmh.apply fake_keypair changes !index in
        let step = (!index, Ifmh.delta ~changes updated, updated) in
        tbl := Update.apply_table changes !tbl;
        index := updated;
        step)
  in
  (index1, steps)

(* ------------------------- primary / follower ----------------------- *)

(* One serving node: engine + store + serve thread; [hub] sets the
   engine's replication hub, which its first subscriber creates.
   [stop] is idempotent so tests can stop a node mid-test (to crash or
   restart it) and the Fun.protect finally stays safe. *)
type node = {
  n_engine : Engine.t;
  n_store : Store.t;
  n_thread : Thread.t;
  mutable n_stopped : bool;
}

let start_node ?(hub = Hub.default_settings) ?(accept_republish = true) ?(port = 0)
    ~store index =
  let config =
    {
      Engine.default_config with
      port;
      drain_timeout = 2.;
      store = Some store;
      accept_republish;
      hub;
    }
  in
  let engine = Engine.create config index in
  {
    n_engine = engine;
    n_store = store;
    n_thread = Thread.create Engine.serve engine;
    n_stopped = false;
  }

(* [Engine.stop] alone: the engine stops its hub and its feeder
   sessions itself *)
let stop_node node =
  if not node.n_stopped then begin
    node.n_stopped <- true;
    Engine.stop node.n_engine;
    Thread.join node.n_thread;
    Store.close node.n_store
  end

let node_epoch node = Ifmh.epoch (Engine.index node.n_engine)
let node_image node = save_bytes (Engine.index node.n_engine)

let expect_recovered dir =
  match Store.open_dir dir with
  | Error e -> Alcotest.failf "recovery failed: %s" (Serror.to_string e)
  | Ok (store, index, recovery) -> (store, index, recovery)

(* ---------------- follower == primary byte-identity ----------------- *)

(* Drive k owner republishes through a live primary while a follower
   tails it; at every epoch the follower's served index must be
   byte-identical to the primary's, and after shutdown the follower's
   store must recover to the same bytes — replication inherits the
   apply == rebuild identity end to end. *)
let test_follower_identity (scheme, dims, seed) () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let prng = Prng.create seed in
          let table = gen_table ~dims prng in
          let index1 = Ifmh.build ~scheme ~epoch:1 table fake_keypair in
          let hub = { Hub.default_settings with heartbeat_interval = 0.2 } in
          let primary = start_node ~hub ~store:(Store.publish ~dir:pdir index1) index1 in
          let follower =
            start_node ~accept_republish:false
              ~store:(Store.publish ~dir:fdir index1) index1
          in
          let tail =
            Follower.start ~engine:follower.n_engine
              ~port:(Engine.port primary.n_engine) ()
          in
          let steps = 5 in
          Fun.protect
            ~finally:(fun () ->
              Follower.stop tail;
              stop_node primary;
              stop_node follower)
            (fun () ->
              check Alcotest.bool "follower connected" true
                (await 10. (fun () ->
                     stat (Engine.stats primary.n_engine) "followers_connected"
                     = 1));
              let tbl = ref table and index = ref index1 in
              for step = 1 to steps do
                let changes = gen_changes ~dims prng !tbl (1 + Prng.int prng 2) in
                let updated = Ifmh.apply fake_keypair changes !index in
                (match
                   Engine.republish primary.n_engine (Ifmh.delta ~changes updated)
                 with
                | Ok epoch' -> check Alcotest.int "primary epoch" (step + 1) epoch'
                | Error msg -> Alcotest.failf "republish failed: %s" msg);
                tbl := Update.apply_table changes !tbl;
                index := updated;
                check Alcotest.bool
                  (Printf.sprintf "follower reaches epoch %d" (step + 1))
                  true
                  (await 10. (fun () -> node_epoch follower = step + 1));
                check Alcotest.string
                  (Printf.sprintf "byte-identical at epoch %d" (step + 1))
                  (hex (save_bytes !index))
                  (hex (node_image follower))
              done;
              check Alcotest.int "deltas shipped" steps
                (stat (Engine.stats primary.n_engine) "deltas_shipped");
              check Alcotest.int "epoch gauge tracks" (steps + 1)
                (stat (Engine.stats follower.n_engine) "epoch");
              (* both replicas answer over the wire and export the epoch
                 they serve *)
              List.iter
                (fun node ->
                  let q =
                    Query.top_k ~x:(Aqv_num.Domain.center (Table.domain !tbl)) ~k:2
                  in
                  (match
                     Roundtrip.call ~port:(Engine.port node.n_engine)
                       (Protocol.Run_query q)
                   with
                  | Protocol.Answer _ -> ()
                  | _ -> Alcotest.fail "expected Answer");
                  match
                    Roundtrip.call ~port:(Engine.port node.n_engine) Protocol.Get_stats
                  with
                  | Protocol.Stats kvs ->
                    check Alcotest.int "epoch exported" (steps + 1) (List.assoc "epoch" kvs)
                  | _ -> Alcotest.fail "expected Stats")
                [ primary; follower ];
              (* a wire republish against the replica must be refused:
                 only the replication stream mutates it *)
              let stray = gen_changes ~dims prng !tbl 1 in
              let stray_delta =
                Ifmh.delta ~changes:stray (Ifmh.apply fake_keypair stray !index)
              in
              (match
                 Roundtrip.call
                   ~port:(Engine.port follower.n_engine)
                   (Protocol.Republish stray_delta)
               with
              | Protocol.Refused msg ->
                check Alcotest.bool "refusal names the replica" true
                  (String.length msg >= 20
                  && String.sub msg 0 20 = "Engine: read replica")
              | _ -> Alcotest.fail "replica accepted a wire republish");
              (* bootstrap fetch returns the primary's current bytes *)
              let snap = Follower.bootstrap ~port:(Engine.port primary.n_engine) () in
              check Alcotest.string "bootstrap snapshot identical"
                (hex (save_bytes !index)) (hex (save_bytes snap));
              (* stop everything, then recover the follower's store from
                 disk: same bytes again (replication == recovery) *)
              let final = save_bytes !index in
              Follower.stop tail;
              stop_node primary;
              stop_node follower;
              let store, recovered, recovery = expect_recovered fdir in
              Store.close store;
              check Alcotest.int "recovered epoch" (steps + 1)
                recovery.Store.final_epoch;
              check Alcotest.string "recovered = replicated" (hex final)
                (hex (save_bytes recovered)))))

(* ------------------- snapshot catch-up / install -------------------- *)

(* A follower too far behind for the backlog (here: the primary's hub
   is created by the follower's own Subscribe, after the primary ran
   ahead, so it holds no delta yet) gets a full snapshot; the engine installs it durably
   (Store.compact) before serving, and the stream continues with
   deltas from the snapshot's epoch. *)
let test_snapshot_install () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let prng = Prng.create 101L in
          let scheme = Ifmh.Multi_signature and dims = 1 in
          let table = gen_table ~dims prng in
          let index1 = Ifmh.build ~scheme ~epoch:1 table fake_keypair in
          let hub = { Hub.default_settings with heartbeat_interval = 0.2 } in
          let primary = start_node ~hub ~store:(Store.publish ~dir:pdir index1) index1 in
          let follower =
            start_node ~accept_republish:false
              ~store:(Store.publish ~dir:fdir index1) index1
          in
          let tbl = ref table and index = ref index1 in
          let republish () =
            let changes = gen_changes ~dims prng !tbl 1 in
            let updated = Ifmh.apply fake_keypair changes !index in
            (match Engine.republish primary.n_engine (Ifmh.delta ~changes updated) with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "republish failed: %s" msg);
            tbl := Update.apply_table changes !tbl;
            index := updated
          in
          Fun.protect
            ~finally:(fun () ->
              stop_node primary;
              stop_node follower)
            (fun () ->
              (* primary runs ahead to epoch 4 before the follower dials
                 in; its hub, created by that Subscribe, holds no
                 delta, so the only catch-up is a snapshot *)
              republish ();
              republish ();
              republish ();
              let tail =
                Follower.start ~engine:follower.n_engine
                  ~port:(Engine.port primary.n_engine) ()
              in
              Fun.protect
                ~finally:(fun () -> Follower.stop tail)
                (fun () ->
                  check Alcotest.bool "snapshot installed" true
                    (await 10. (fun () -> node_epoch follower = 4));
                  check Alcotest.string "byte-identical after install"
                    (hex (save_bytes !index)) (hex (node_image follower));
                  (* install is a compaction: snapshot rewritten, log reset *)
                  check Alcotest.int "follower log reset" 0
                    (Store.log_frames follower.n_store);
                  check Alcotest.int "compaction counted" 1
                    (stat (Engine.stats follower.n_engine) "compactions");
                  (* the stream continues with plain deltas from here *)
                  republish ();
                  check Alcotest.bool "delta after snapshot" true
                    (await 10. (fun () -> node_epoch follower = 5));
                  check Alcotest.string "byte-identical at epoch 5"
                    (hex (save_bytes !index)) (hex (node_image follower)));
              let final = save_bytes !index in
              stop_node primary;
              stop_node follower;
              let store, recovered, recovery = expect_recovered fdir in
              Store.close store;
              check Alcotest.int "snapshot epoch on disk" 4
                recovery.Store.snapshot_epoch;
              check Alcotest.int "one delta replayed" 1 recovery.Store.replayed;
              check Alcotest.string "recovered = replicated" (hex final)
                (hex (save_bytes recovered)))))

(* ------------- follower crash: torn tail, reconverge ---------------- *)

(* Kill the follower with a torn WAL tail (partial append at crash),
   recover its store (tail truncated to the durable prefix), restart
   the tail from the recovered epoch: it must re-subscribe into the
   backlog and reconverge byte-identically. *)
let test_follower_crash_reconverge () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let prng = Prng.create 102L in
          let scheme = Ifmh.Multi_signature and dims = 1 in
          let table = gen_table ~dims prng in
          let index1 = Ifmh.build ~scheme ~epoch:1 table fake_keypair in
          let hub = { Hub.default_settings with heartbeat_interval = 0.2 } in
          let primary = start_node ~hub ~store:(Store.publish ~dir:pdir index1) index1 in
          let tbl = ref table and index = ref index1 in
          let republish () =
            let changes = gen_changes ~dims prng !tbl 1 in
            let updated = Ifmh.apply fake_keypair changes !index in
            (match Engine.republish primary.n_engine (Ifmh.delta ~changes updated) with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "republish failed: %s" msg);
            tbl := Update.apply_table changes !tbl;
            index := updated
          in
          let follower =
            ref
              (start_node ~accept_republish:false
                 ~store:(Store.publish ~dir:fdir index1) index1)
          in
          let tail =
            ref
              (Follower.start ~engine:!follower.n_engine
                 ~port:(Engine.port primary.n_engine) ())
          in
          Fun.protect
            ~finally:(fun () ->
              Follower.stop !tail;
              stop_node primary;
              stop_node !follower)
            (fun () ->
              republish ();
              republish ();
              check Alcotest.bool "follower at epoch 3" true
                (await 10. (fun () -> node_epoch !follower = 3));
              (* crash: stop the node, then fake the torn append a kill -9
                 mid-write leaves behind (a frame header promising more
                 bytes than exist) *)
              Follower.stop !tail;
              stop_node !follower;
              let garbage = "\x7f\x01\x02\x03torn-tail!" in
              let oc =
                open_out_gen
                  [ Open_append; Open_binary ]
                  0o644 (Aqv_ref.Store_ref.wal_path fdir)
              in
              output_string oc garbage;
              close_out oc;
              let store, recovered, recovery = expect_recovered fdir in
              check Alcotest.int "garbage truncated" (String.length garbage)
                recovery.Store.torn_tail_bytes;
              check Alcotest.int "durable prefix recovered" 3
                recovery.Store.final_epoch;
              (* restart from the recovered epoch; the hub's backlog
                 covers the gap, so catch-up is deltas, not a snapshot *)
              follower := start_node ~accept_republish:false ~store recovered;
              tail :=
                Follower.start ~engine:!follower.n_engine
                  ~port:(Engine.port primary.n_engine) ();
              republish ();
              republish ();
              check Alcotest.bool "reconverged to epoch 5" true
                (await 10. (fun () -> node_epoch !follower = 5));
              check Alcotest.string "byte-identical after crash"
                (hex (save_bytes !index))
                (hex (node_image !follower));
              check Alcotest.int "no snapshot was needed" 0
                (stat (Engine.stats !follower.n_engine) "compactions"))))

(* --------------------- follower stop closes once --------------------- *)

(* [Follower.stop] must leave the close of the stream's fd to the
   tailing thread: were both to close it, a number another thread was
   handed in between would be closed under that thread. Stop a tailing
   follower over and over while a second thread opens, uses and closes
   pipes; no pipe op may see EBADF. *)
let test_follower_stop_closes_once () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let table = gen_table ~dims:1 (Prng.create 121L) in
          let index1 = Ifmh.build ~scheme:Ifmh.One_signature ~epoch:1 table fake_keypair in
          let hub = { Hub.default_settings with heartbeat_interval = 0.02 } in
          let primary = start_node ~hub ~store:(Store.publish ~dir:pdir index1) index1 in
          let follower =
            start_node ~accept_republish:false ~store:(Store.publish ~dir:fdir index1) index1
          in
          let ebadf = Atomic.make 0 and churning = Atomic.make true in
          let on_ebadf f = try f () with Unix.Unix_error (Unix.EBADF, _, _) -> Atomic.incr ebadf in
          let churn () =
            let buf = Bytes.create 1 in
            while Atomic.get churning do
              let r, w = Unix.pipe () in
              (* non-blocking: a read end closed under us and reused
                 for a socket must not hang the test *)
              on_ebadf (fun () ->
                  Unix.set_nonblock r;
                  ignore (Unix.write_substring w "x" 0 1);
                  try ignore (Unix.read r buf 0 1)
                  with Unix.Unix_error (Unix.EAGAIN, _, _) -> ());
              on_ebadf (fun () -> Unix.close r);
              on_ebadf (fun () -> Unix.close w)
            done
          in
          let churner = Thread.create churn () in
          Fun.protect
            ~finally:(fun () ->
              Atomic.set churning false;
              Thread.join churner;
              stop_node primary;
              stop_node follower)
            (fun () ->
              for i = 1 to 200 do
                let tail =
                  Follower.start ~engine:follower.n_engine
                    ~port:(Engine.port primary.n_engine) ()
                in
                Thread.delay (0.001 *. float_of_int (i mod 4));
                Follower.stop tail
              done;
              check Alcotest.int "no pipe op saw EBADF" 0 (Atomic.get ebadf))))

(* With its primary down, [Follower.stop] returns at once: the tail
   dials once per redial, so a stop has no nested connect retries to
   wait out. *)
let test_follower_stop_primary_down () =
  with_dir (fun fdir ->
      let index1, _ = gen_chain ~scheme:Ifmh.One_signature ~dims:1 (Prng.create 122L) 0 in
      (* a port nothing listens on *)
      let dead_port =
        let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        let port =
          match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false
        in
        Unix.close s;
        port
      in
      let follower =
        start_node ~accept_republish:false ~store:(Store.publish ~dir:fdir index1) index1
      in
      Fun.protect
        ~finally:(fun () -> stop_node follower)
        (fun () ->
          let tail = Follower.start ~engine:follower.n_engine ~port:dead_port () in
          Thread.delay 0.3;
          let t0 = Unix.gettimeofday () in
          Follower.stop tail;
          let elapsed = Unix.gettimeofday () -. t0 in
          check Alcotest.bool
            (Printf.sprintf "stop returned in %.2f s, under 1 s" elapsed)
            true (elapsed < 1.)))

(* ------------------------------ hub --------------------------------- *)

let read_reply ?(timeout = 5.) fd =
  match Frame_io.read_frame ~header_timeout:timeout ~body_timeout:timeout fd with
  | None -> Alcotest.fail "replication stream closed unexpectedly"
  | Some payload -> Protocol.decode_reply (Wire.reader payload)

(* heartbeats interleave freely with catch-up frames: skip them *)
let rec read_non_hello ?(timeout = 5.) fd =
  match read_reply ~timeout fd with
  | Protocol.Hello _ -> read_non_hello ~timeout fd
  | reply -> reply

let subscribe_pair hub ~from_epoch =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let th = Thread.create (fun () -> Hub.subscribe hub a ~from_epoch) () in
  (a, b, th)

(* A standalone hub over its own served-index cell, stepped in the
   engine's order: swap the served index, then ship its delta. *)
let ship hub served (base, delta, updated) =
  Atomic.set served updated;
  Hub.ship hub ~base_epoch:(Ifmh.epoch base) delta

(* The hub's latest epoch as a subscriber learns it: the epoch of the
   Hello it is sent first. The probe hangs up at once; the hub drops it
   at its next write (a heartbeat at the latest), so it is gone by the
   time this returns. *)
let hub_latest_epoch hub =
  let a, b, th = subscribe_pair hub ~from_epoch:None in
  let epoch =
    match read_reply b with
    | Protocol.Hello { epoch } -> epoch
    | _ -> Alcotest.fail "expected Hello first"
  in
  Unix.close b;
  Thread.join th;
  Unix.close a;
  epoch

(* Catch-up mode selection: up to date -> nothing; behind but covered
   by the backlog -> exactly the delta suffix; bootstrap (or past the
   backlog) -> a full snapshot. *)
let test_hub_catchup_modes () =
  let prng = Prng.create 103L in
  let index1, steps = gen_chain ~scheme:Ifmh.Multi_signature ~dims:1 prng 2 in
  let final = match List.rev steps with (_, _, u) :: _ -> u | [] -> assert false in
  let served = Atomic.make index1 in
  let hub = Hub.create { Hub.default_settings with heartbeat_interval = 0.2 } served in
  List.iter (ship hub served) steps;
  check Alcotest.int "hub latest" 3 (hub_latest_epoch hub);
  (* up to date: a Hello, then heartbeats only *)
  let a1, b1, th1 = subscribe_pair hub ~from_epoch:(Some 3) in
  (match read_reply b1 with
  | Protocol.Hello { epoch } -> check Alcotest.int "hello epoch" 3 epoch
  | _ -> Alcotest.fail "expected Hello first");
  (* heartbeats keep arriving; anything else within the window is a
     catch-up frame the up-to-date subscriber must not get *)
  let deadline = Unix.gettimeofday () +. 0.7 in
  (try
     while Unix.gettimeofday () < deadline do
       match read_reply ~timeout:0.3 b1 with
       | Protocol.Hello _ -> ()
       | _ -> Alcotest.fail "up-to-date subscriber was sent catch-up frames"
     done
   with Frame_io.Timeout -> ());
  (* behind, in the backlog: the delta suffix, in order *)
  let a2, b2, th2 = subscribe_pair hub ~from_epoch:(Some 1) in
  List.iter
    (fun (base, _, updated) ->
      match read_non_hello b2 with
      | Protocol.Delta_frame { base_epoch; delta } ->
        check Alcotest.int "suffix base" (Ifmh.epoch base) base_epoch;
        check Alcotest.int "suffix next" (Ifmh.epoch updated) (Ifmh.delta_epoch delta)
      | _ -> Alcotest.fail "expected a Delta_frame from the backlog")
    steps;
  (* bootstrap: one full snapshot of the latest index *)
  let a3, b3, th3 = subscribe_pair hub ~from_epoch:None in
  (match read_non_hello b3 with
  | Protocol.Snapshot_frame { index } ->
    check Alcotest.string "snapshot is the latest index"
      (hex (save_bytes final)) (hex index)
  | _ -> Alcotest.fail "expected a Snapshot_frame for bootstrap");
  Hub.stop hub;
  List.iter Thread.join [ th1; th2; th3 ];
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ a1; b1; a2; b2; a3; b3 ]

(* Backpressure: a subscriber that never drains must be dropped --
   ship stays enqueue-only and returns immediately -- and a fresh
   subscription from the stale epoch replays the backlog to the tip. *)
let test_hub_slow_follower () =
  let prng = Prng.create 104L in
  let table = gen_table ~dims:1 prng in
  let index1 = Ifmh.build ~scheme:Ifmh.Multi_signature ~epoch:1 table fake_keypair in
  (* fat payloads so a handful of frames overwhelms the smallest
     socket buffers the kernel will grant *)
  let steps =
    let index = ref index1 in
    List.init 8 (fun i ->
        let changes =
          [
            Update.Insert
              (Record.make ~id:(2000 + i)
                 ~attrs:[| Q.of_int (61 + i); Q.of_int i |]
                 ~payload:(String.make 4096 'x') ());
          ]
        in
        let updated = Ifmh.apply fake_keypair changes !index in
        let step = (!index, Ifmh.delta ~changes updated, updated) in
        index := updated;
        step)
  in
  let final = match List.rev steps with (_, _, u) :: _ -> u | [] -> assert false in
  let served = Atomic.make index1 in
  let hub =
    Hub.create
      { Hub.heartbeat_interval = 0.1; write_timeout = 0.2 }
      served
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_int a Unix.SO_SNDBUF 1;
  Unix.setsockopt_int b Unix.SO_RCVBUF 1;
  (* [subscribe] returns once the hub drops the subscriber *)
  let dropped = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Hub.subscribe hub a ~from_epoch:(Some 1);
        Atomic.set dropped true)
      ()
  in
  (* the Hello is queued as the hub registers the subscriber *)
  check Alcotest.bool "subscriber registered" true
    (match read_reply b with Protocol.Hello _ -> true | _ -> false);
  (* the subscriber never reads: ship everything; every call returns
     without blocking on the dead weight *)
  List.iter (ship hub served) steps;
  check Alcotest.int "hub latest" 9 (hub_latest_epoch hub);
  check Alcotest.bool "slow follower dropped" true
    (await 5. (fun () -> Atomic.get dropped));
  Thread.join th;
  check Alcotest.int "no queued frames for the dead" 0 (Hub.lag hub);
  (* re-subscribe from the stale epoch: the backlog replays the chain *)
  let c, d, th2 = subscribe_pair hub ~from_epoch:(Some 1) in
  let replica = ref index1 in
  List.iter
    (fun _ ->
      match read_non_hello d with
      | Protocol.Delta_frame { base_epoch; delta } ->
        check Alcotest.int "chain continuity" (Ifmh.epoch !replica) base_epoch;
        replica := Ifmh.apply_delta delta !replica
      | _ -> Alcotest.fail "expected a Delta_frame from the backlog")
    steps;
  check Alcotest.string "caught up byte-identically" (hex (save_bytes final))
    (hex (save_bytes !replica));
  Hub.stop hub;
  Thread.join th2;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ a; b; c; d ]

(* Run [f] with every message of the hub's log source stalled 20 ms in
   the reporter, as a log sink that blocks (a full stderr pipe) would
   stall it. *)
let with_stalled_hub_log f =
  let src = List.find (fun s -> Logs.Src.name s = "aqv.hub") (Logs.Src.list ()) in
  let level = Logs.Src.level src and reporter = Logs.reporter () in
  Logs.Src.set_level src (Some Logs.Info);
  Logs.set_reporter
    {
      Logs.report =
        (fun _ _ ~over k _ ->
          Thread.delay 0.02;
          over ();
          k ());
    };
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.Src.set_level src level)
    f

(* Catch-up and live deltas are one stream: a subscriber that joins at
   the oldest epoch of a full backlog while another thread ships more
   deltas is sent every delta in order and is not dropped. The shipper
   starts as soon as the subscriber is registered, and the stalled log
   line the hub writes on a subscription gives its ships time to land
   before the subscriber's catch-up is written. *)
let test_hub_join_while_shipping () =
  with_stalled_hub_log @@ fun () ->
  let live = 16 in
  let index1, steps =
    gen_chain ~scheme:Ifmh.One_signature ~dims:1 (Prng.create 109L) (64 + live)
  in
  let backlog = List.filteri (fun i _ -> i < 64) steps
  and more = List.filteri (fun i _ -> i >= 64) steps in
  let final = 1 + 64 + live in
  let served = Atomic.make index1 in
  let hub = Hub.create { Hub.default_settings with heartbeat_interval = 0.05 } served in
  List.iter (ship hub served) backlog;
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* the stream ends early only if the hub drops the subscriber *)
  let th =
    Thread.create
      (fun () ->
        Hub.subscribe hub a ~from_epoch:(Some 1);
        Unix.shutdown a Unix.SHUTDOWN_ALL)
      ()
  in
  let joined = Atomic.make false in
  let shipper =
    Thread.create
      (fun () ->
        (* spin on the hub's lock: registered once a stream lags, or
           once the reader has its Hello *)
        while Hub.lag hub = 0 && not (Atomic.get joined) do
          ()
        done;
        List.iter (ship hub served) more)
      ()
  in
  let rec follow epoch =
    if epoch = final then epoch
    else
      match read_reply b with
      | Protocol.Hello _ ->
        Atomic.set joined true;
        follow epoch
      | Protocol.Delta_frame { base_epoch; delta } ->
        check Alcotest.int "next delta in order" epoch base_epoch;
        follow (Ifmh.delta_epoch delta)
      | _ -> Alcotest.fail "expected a Delta_frame"
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set joined true;
      Thread.join shipper;
      Hub.stop hub;
      Thread.join th;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ])
    (fun () -> check Alcotest.int "ends at the last epoch" final (follow 1))

(* true once the stream ends within [within] seconds, whatever frames
   come before the end *)
let closes ?(within = 5.) fd =
  let deadline = Unix.gettimeofday () +. within in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    left > 0.
    &&
    match Frame_io.read_frame ~header_timeout:left ~body_timeout:left fd with
    | None | (exception (Failure _ | Unix.Unix_error _)) -> true
    | Some _ -> go ()
    | exception Frame_io.Timeout -> false
  in
  go ()

(* A replication stream from [node]'s engine, as a follower opens one *)
let subscribe_to node ~from_epoch =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Engine.port node.n_engine));
  let w = Frame_io.writer () in
  Protocol.encode_request w (Protocol.Subscribe { from_epoch });
  ignore (Frame_io.write_writer ~timeout:5. fd w);
  fd

let close_all fds = List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds

let republish_ok node delta =
  match Engine.republish node.n_engine delta with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "republish failed: %s" msg

(* A follower that caught up by snapshot serves the snapshot's epoch,
   and a subscriber of that follower must start from what it serves:
   a Hello with the served epoch, a bootstrap snapshot of the served
   index, then the next delta. The follower's hub exists before the
   install (an early subscriber created it at epoch 1); the install
   leaves that subscriber attached, and after its epoch-1 bootstrap it
   is sent a snapshot of the served index, as no delta can follow on
   from epoch 1. *)
let test_hub_after_snapshot_install () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let prng = Prng.create 107L in
          let index1, steps = gen_chain ~scheme:Ifmh.Multi_signature ~dims:1 prng 3 in
          let hub = { Hub.default_settings with heartbeat_interval = 0.2 } in
          let primary = start_node ~hub ~store:(Store.publish ~dir:pdir index1) index1 in
          let follower =
            start_node ~hub ~accept_republish:false ~store:(Store.publish ~dir:fdir index1) index1
          in
          let tail = ref None and fds = ref [] in
          Fun.protect
            ~finally:(fun () ->
              Option.iter Follower.stop !tail;
              stop_node primary;
              stop_node follower;
              close_all !fds)
            (fun () ->
              let early = subscribe_to follower ~from_epoch:None in
              fds := [ early ];
              (match read_reply early with
              | Protocol.Hello { epoch } -> check Alcotest.int "early subscriber at epoch 1" 1 epoch
              | _ -> Alcotest.fail "expected Hello first");
              (* the primary runs two epochs ahead before anyone
                 subscribes to it, so its hub holds no delta and the
                 follower catches up by snapshot *)
              (match steps with
              | (_, d1, _) :: (_, d2, _) :: _ -> List.iter (republish_ok primary) [ d1; d2 ]
              | _ -> assert false);
              tail :=
                Some
                  (Follower.start ~engine:follower.n_engine ~port:(Engine.port primary.n_engine) ());
              check Alcotest.bool "follower installed the snapshot" true
                (await 10. (fun () -> node_epoch follower = 3));
              check Alcotest.int "caught up by snapshot, not by deltas" 1
                (stat (Engine.stats follower.n_engine) "compactions");
              (match read_non_hello early with
              | Protocol.Snapshot_frame _ -> ()
              | _ -> Alcotest.fail "expected the early subscriber's bootstrap");
              (match read_non_hello early with
              | Protocol.Snapshot_frame { index } ->
                check Alcotest.string "early subscriber gets the served index"
                  (hex (node_image follower)) (hex index)
              | _ -> Alcotest.fail "expected a Snapshot_frame after the install");
              let sub = subscribe_to follower ~from_epoch:None in
              fds := sub :: !fds;
              (match read_reply sub with
              | Protocol.Hello { epoch } -> check Alcotest.int "hello at the served epoch" 3 epoch
              | _ -> Alcotest.fail "expected Hello first");
              (match read_non_hello sub with
              | Protocol.Snapshot_frame { index } ->
                check Alcotest.string "bootstrap is the served index" (hex (node_image follower))
                  (hex index)
              | _ -> Alcotest.fail "expected a Snapshot_frame for bootstrap");
              (match steps with
              | [ _; _; (_, delta, _) ] -> republish_ok primary delta
              | _ -> assert false);
              match read_non_hello sub with
              | Protocol.Delta_frame { base_epoch; delta } ->
                check Alcotest.int "next delta from the served epoch" 3 base_epoch;
                check Alcotest.int "next delta to epoch 4" 4 (Ifmh.delta_epoch delta)
              | _ -> Alcotest.fail "expected the next Delta_frame")))

(* [Engine.stop] alone stops a follower with a subscriber attached: the
   engine releases the feeder session itself, so [serve] returns well
   inside its 2 s drain bound, and the subscriber sees its stream end. *)
let test_stop_with_subscriber () =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let index1, _ = gen_chain ~scheme:Ifmh.One_signature ~dims:1 (Prng.create 108L) 0 in
          let primary = start_node ~store:(Store.publish ~dir:pdir index1) index1 in
          let follower =
            start_node ~accept_republish:false ~store:(Store.publish ~dir:fdir index1) index1
          in
          let tail =
            Follower.start ~engine:follower.n_engine ~port:(Engine.port primary.n_engine) ()
          in
          let sub = subscribe_to follower ~from_epoch:(Some 1) in
          Fun.protect
            ~finally:(fun () ->
              Follower.stop tail;
              stop_node primary;
              stop_node follower;
              close_all [ sub ])
            (fun () ->
              check Alcotest.bool "subscriber attached" true
                (match read_reply sub with Protocol.Hello _ -> true | _ -> false);
              let t0 = Unix.gettimeofday () in
              stop_node follower;
              let elapsed = Unix.gettimeofday () -. t0 in
              check Alcotest.bool
                (Printf.sprintf "serve returned in %.2f s, under 1 s" elapsed)
                true (elapsed < 1.);
              check Alcotest.bool "subscriber's stream ended" true (closes sub))))

(* ----------------------------- router ------------------------------- *)

(* Epoch-minimum routing: replicas behind the best known epoch are not
   candidates; once they catch up they rejoin the rotation; a dead
   replica fails over. *)
let test_router_epoch_minimum () =
  let prng = Prng.create 105L in
  let index1, steps = gen_chain ~scheme:Ifmh.Multi_signature ~dims:1 prng 1 in
  let index2 = match steps with [ (_, _, u) ] -> u | _ -> assert false in
  let mk index =
    let engine =
      Engine.create { Engine.default_config with port = 0; drain_timeout = 2. } index
    in
    (engine, Thread.create Engine.serve engine)
  in
  let ea, tha = mk index2 (* ahead: epoch 2 *) in
  let eb, thb = mk index1 (* behind: epoch 1 *) in
  let router =
    Router.create ~poll_interval:60.
      ~replicas:
        [
          (Unix.inet_addr_loopback, Engine.port ea);
          (Unix.inet_addr_loopback, Engine.port eb);
        ]
      ()
  in
  let rth = Thread.create Router.serve router in
  let stopped = ref [] in
  let stop_engine (e, th) =
    if not (List.memq e !stopped) then begin
      stopped := e :: !stopped;
      Engine.stop e;
      Thread.join th
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Thread.join rth;
      stop_engine (ea, tha);
      stop_engine (eb, thb))
    (fun () ->
      let ask () =
        match Roundtrip.call ~port:(Router.port router) Protocol.Get_stats with
        | Protocol.Stats kvs -> (
          match List.assoc_opt "epoch" kvs with Some e -> e | None -> -1)
        | _ -> Alcotest.fail "expected Stats through the router"
      in
      let served () =
        match Router.counts router with
        | [ (_, a); (_, b) ] -> (a, b)
        | _ -> Alcotest.fail "two replicas expected"
      in
      check Alcotest.(list int) "initial poll" [ 2; 1 ] (Router.epochs router);
      (* only the epoch-2 replica is a candidate *)
      for _ = 1 to 4 do
        check Alcotest.int "served at the best epoch" 2 (ask ())
      done;
      let a, b = served () in
      check Alcotest.int "ahead replica served all" 4 a;
      check Alcotest.int "lagging replica served none" 0 b;
      (* the laggard catches up and rejoins the rotation *)
      check Alcotest.bool "swap" true (Result.is_ok (Engine.install_snapshot eb index2));
      Router.poll_now router;
      for _ = 1 to 4 do
        check Alcotest.int "still the best epoch" 2 (ask ())
      done;
      let a', b' = served () in
      check Alcotest.bool "round-robin resumed" true (a' > a && b' > b);
      (* kill the first replica: the router fails over to the other *)
      stop_engine (ea, tha);
      Router.poll_now router;
      check Alcotest.(list int) "dead replica marked down" [ -1; 2 ]
        (Router.epochs router);
      for _ = 1 to 2 do
        check Alcotest.int "failover serves" 2 (ask ())
      done;
      let _, b'' = served () in
      check Alcotest.bool "survivor serving" true (b'' >= b' + 2))

(* The router's connection bound: 64 idle clients hold every slot, the
   next connection is shed with [Refused "overloaded"], and closing one
   idle client frees its slot for a fresh connection. At most 65
   client sockets are open at once. *)
let test_router_sheds_past_bound () =
  let index, _ = gen_chain ~scheme:Ifmh.Multi_signature ~dims:1 (Prng.create 106L) 0 in
  let engine = Engine.create { Engine.default_config with port = 0; drain_timeout = 2. } index in
  let eth = Thread.create Engine.serve engine in
  let router =
    Router.create ~poll_interval:60. ~replicas:[ (Unix.inet_addr_loopback, Engine.port engine) ] ()
  in
  let rth = Thread.create Router.serve router in
  let port = Router.port router in
  let idle = ref [] in
  let close fd = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      List.iter close !idle;
      Router.stop router;
      Thread.join rth;
      Engine.stop engine;
      Thread.join eth)
    (fun () ->
      (* the accept loop takes connections in order, so these 64 hold
         every slot before the next one is accepted *)
      for _ = 1 to 64 do
        idle := Roundtrip.connect port :: !idle
      done;
      (match Roundtrip.call ~port Protocol.Get_stats with
      | Protocol.Refused m -> check Alcotest.string "shed past the bound" "overloaded" m
      | _ -> Alcotest.fail "expected Refused \"overloaded\" past the bound");
      (match !idle with
      | fd :: rest ->
        close fd;
        idle := rest
      | [] -> assert false);
      (* the closed session releases its slot as soon as its thread
         sees the EOF *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec served_again () =
        match Roundtrip.call ~port Protocol.Get_stats with
        | Protocol.Stats kvs ->
          check Alcotest.(option int) "served by the replica" (Some 1) (List.assoc_opt "epoch" kvs)
        | Protocol.Refused "overloaded" when Unix.gettimeofday () < deadline ->
          Thread.delay 0.01;
          served_again ()
        | _ -> Alcotest.fail "expected Stats once a slot was released"
      in
      served_again ())

(* An engine closes a session idle past its [idle_timeout], which
   leaves the router's cached connection to it stale: the next request
   must redial the replica, not mark a healthy replica down. *)
let test_router_redials_idle_replica () =
  let index, _ = gen_chain ~scheme:Ifmh.Multi_signature ~dims:1 (Prng.create 110L) 0 in
  let engine =
    Engine.create
      { Engine.default_config with port = 0; drain_timeout = 2.; idle_timeout = 0.2 }
      index
  in
  let eth = Thread.create Engine.serve engine in
  let router =
    Router.create ~poll_interval:60. ~replicas:[ (Unix.inet_addr_loopback, Engine.port engine) ] ()
  in
  let rth = Thread.create Router.serve router in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Thread.join rth;
      Engine.stop engine;
      Thread.join eth)
    (fun () ->
      Roundtrip.with_connection ~port:(Router.port router) (fun fd ->
          let served_epoch () =
            match Roundtrip.ask fd Protocol.Get_stats with
            | Protocol.Stats kvs -> List.assoc_opt "epoch" kvs
            | Protocol.Refused m -> Alcotest.failf "refused: %s" m
            | _ -> Alcotest.fail "expected Stats through the router"
          in
          check Alcotest.(option int) "first request" (Some 1) (served_epoch ());
          Thread.delay 0.6;
          check Alcotest.(option int) "after the replica closed the idle connection" (Some 1)
            (served_epoch ()));
      check Alcotest.(list int) "replica not marked down" [ 1 ] (Router.epochs router))

(* -------------------------- composed faults ------------------------- *)

(* The whole cluster at once, with seeded faults on two links. A
   primary (store + hub) takes the owner's republishes on a clean link;
   a follower tails it through proxy A, which delays, truncates and
   drops replication frames; a router over both serves verifying
   clients through proxy B, which does the same to replies. Mid-run the
   follower is stopped and restarted from its own store, on its old
   port so the router finds it again. What must hold:
   - every reply a client accepts is byte-identical to
     [Protocol.handle] on the owner's index at that reply's epoch;
   - the primary serves the owner's last acked epoch;
   - once the owner is done, the follower converges to the primary's
     bytes;
   - both proxies fired every kind of fault.
   The run lasts until the owner is done and both proxies have fired
   every kind, bounded by a deadline. *)

let composed_deltas = 6

(* per-mille rates for both proxies: about one frame in five is hit *)
let composed_schedule seed =
  Fault_net.schedule ~seed ~delay_permille:100 ~max_delay_ms:5 ~truncate_permille:60
    ~drop_permille:60 ()

let fired_every_kind proxy =
  let c = Fault_net.counts proxy in
  c.Fault_net.delays >= 1 && c.Fault_net.truncates >= 1 && c.Fault_net.drops >= 1

(* One request through proxy B on a fresh connection: the raw reply
   bytes, or [None] when a fault or a restart cut the exchange. *)
let ask_raw ~port payload =
  match Roundtrip.connect ~opts:{ Roundtrip.default_opts with attempts = 2 } port with
  | exception Failure _ -> None
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match
          ignore (Frame_io.write_frame ~timeout:2. fd payload);
          Frame_io.read_frame ~header_timeout:2. ~body_timeout:2. fd
        with
        | reply -> reply
        | exception e when Roundtrip.transient e -> None)

let encoded f v =
  let w = Wire.writer () in
  f w v;
  Wire.contents w

let run_composed_faults seed =
  with_dir (fun pdir ->
      with_dir (fun fdir ->
          let prng = Prng.create seed in
          let scheme =
            if Int64.rem seed 2L = 0L then Ifmh.Multi_signature else Ifmh.One_signature
          in
          let index1, steps = gen_chain ~scheme ~dims:1 prng composed_deltas in
          let last_epoch = composed_deltas + 1 in
          (* the owner's index at every epoch, computed before the run *)
          let owner = Array.of_list (index1 :: List.map (fun (_, _, u) -> u) steps) in
          let bundle = Protocol.bundle_of_index index1 Signer.Unverifiable in
          let ctx =
            Client.make_ctx ~template:bundle.Protocol.template ~domain:bundle.Protocol.domain
              ~verify_signature:fake_keypair.Signer.verify
          in
          let table = Ifmh.table index1 in
          let x = Aqv_num.Domain.center (Table.domain table) in
          let queries =
            let l, u = Workload.range_for_result_size table ~x ~size:2 in
            Array.of_list
              (Query.range ~x ~l ~u :: List.init 3 (fun k -> Query.top_k ~x ~k:(k + 1)))
          in
          let hub = { Hub.default_settings with heartbeat_interval = 0.01 } in
          let primary = start_node ~hub ~store:(Store.publish ~dir:pdir index1) index1 in
          let proxy_a =
            Fault_net.start ~upstream:(Engine.port primary.n_engine)
              (composed_schedule (Int64.add seed 1L))
          in
          let follower =
            ref
              (start_node ~accept_republish:false ~store:(Store.publish ~dir:fdir index1) index1)
          in
          let follower_port = Engine.port !follower.n_engine in
          let tail =
            ref (Follower.start ~engine:!follower.n_engine ~port:(Fault_net.port proxy_a) ())
          in
          let router =
            Router.create ~poll_interval:0.05
              ~replicas:
                [
                  (Unix.inet_addr_loopback, Engine.port primary.n_engine);
                  (Unix.inet_addr_loopback, follower_port);
                ]
              ()
          in
          let rth = Thread.create Router.serve router in
          let proxy_b =
            Fault_net.start ~upstream:(Router.port router) (composed_schedule (Int64.add seed 2L))
          in
          let running = Atomic.make true in
          let accepted = Atomic.make 0 and wrong = Atomic.make 0 in
          let client i =
            let prng = Prng.create (Int64.add seed (Int64.of_int (10 + i))) in
            while Atomic.get running do
              let q = queries.(Prng.int prng (Array.length queries)) in
              let request = Protocol.Run_query q in
              let payload = encoded Protocol.encode_request request in
              (match ask_raw ~port:(Fault_net.port proxy_b) payload with
              | None -> ()
              | Some bytes -> (
                match Protocol.decode_reply (Wire.reader bytes) with
                | Protocol.Answer resp when Client.accepts ctx q resp ->
                  let e = resp.Server.vo.Vo.epoch in
                  if
                    e >= 1 && e <= last_epoch
                    && String.equal bytes
                         (encoded Protocol.encode_reply (Protocol.handle owner.(e - 1) request))
                  then Atomic.incr accepted
                  else Atomic.incr wrong
                | _ | (exception (Failure _ | Invalid_argument _)) -> ()));
              Thread.delay 0.002
            done
          in
          let clients = List.init 2 (fun i -> Thread.create client i) in
          let stop_clients () =
            if Atomic.exchange running false then List.iter Thread.join clients
          in
          Fun.protect
            ~finally:(fun () ->
              stop_clients ();
              Fault_net.stop proxy_b;
              Router.stop router;
              Thread.join rth;
              Follower.stop !tail;
              Fault_net.stop proxy_a;
              stop_node primary;
              stop_node !follower)
            (fun () ->
              List.iteri
                (fun i (_, delta, updated) ->
                  Thread.delay 0.08;
                  (match
                     Roundtrip.call ~port:(Engine.port primary.n_engine)
                       (Protocol.Republish delta)
                   with
                  | Protocol.Republished e ->
                    check Alcotest.int "acked epoch" (Ifmh.epoch updated) e
                  | _ -> Alcotest.fail "expected Republished");
                  if i = (composed_deltas / 2) - 1 then begin
                    (* stop the follower and restart it from its store *)
                    Follower.stop !tail;
                    stop_node !follower;
                    let store, recovered, _ = expect_recovered fdir in
                    check Alcotest.string "follower recovers the owner's bytes"
                      (hex (save_bytes owner.(Ifmh.epoch recovered - 1)))
                      (hex (save_bytes recovered));
                    follower :=
                      start_node ~accept_republish:false ~port:follower_port ~store recovered;
                    tail :=
                      Follower.start ~engine:!follower.n_engine
                        ~port:(Fault_net.port proxy_a) ()
                  end)
                steps;
              check Alcotest.int "primary serves the last acked epoch" last_epoch
                (node_epoch primary);
              check Alcotest.string "primary = owner"
                (hex (save_bytes owner.(last_epoch - 1)))
                (hex (node_image primary));
              check Alcotest.bool "follower converges" true
                (await 10. (fun () -> node_epoch !follower = last_epoch));
              check Alcotest.string "follower = primary" (hex (node_image primary))
                (hex (node_image !follower));
              check Alcotest.bool "proxy A fired every kind of fault" true
                (await 10. (fun () -> fired_every_kind proxy_a));
              check Alcotest.bool "proxy B fired every kind of fault" true
                (await 10. (fun () -> fired_every_kind proxy_b));
              check Alcotest.bool "clients accepted replies" true
                (await 10. (fun () -> Atomic.get accepted >= 20));
              stop_clients ();
              check Alcotest.int "every accepted reply is the owner's" 0 (Atomic.get wrong);
              true)))

(* No shrinker: a case is a timed run of the whole cluster; the seed of
   a failure is printed as found. QCHECK_LONG=1 runs eight seeds. *)
let test_composed_faults =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1 ~long_factor:8
       ~name:"primary, follower and router under seeded faults"
       (QCheck.make ~print:Int64.to_string QCheck.Gen.(map Int64.of_int (int_bound 1_000_000)))
       run_composed_faults)

let () =
  Alcotest.run "aqv_cluster"
    [
      ( "identity",
        [
          Alcotest.test_case "one-sig 1-D" `Quick
            (test_follower_identity (Ifmh.One_signature, 1, 111L));
          Alcotest.test_case "multi-sig 1-D" `Quick
            (test_follower_identity (Ifmh.Multi_signature, 1, 112L));
          Alcotest.test_case "multi-sig 2-D" `Quick
            (test_follower_identity (Ifmh.Multi_signature, 2, 113L));
        ] );
      ( "catch-up",
        [
          Alcotest.test_case "snapshot install" `Quick test_snapshot_install;
          Alcotest.test_case "crash + reconverge" `Quick
            test_follower_crash_reconverge;
          Alcotest.test_case "stop closes once" `Quick test_follower_stop_closes_once;
          Alcotest.test_case "stop with the primary down" `Quick test_follower_stop_primary_down;
        ] );
      ( "hub",
        [
          Alcotest.test_case "catch-up modes" `Quick test_hub_catchup_modes;
          Alcotest.test_case "slow follower dropped" `Quick test_hub_slow_follower;
          Alcotest.test_case "served epoch after snapshot install" `Quick
            test_hub_after_snapshot_install;
          Alcotest.test_case "engine stop releases subscribers" `Quick test_stop_with_subscriber;
          Alcotest.test_case "join at the oldest backlog epoch while shipping" `Quick
            test_hub_join_while_shipping;
        ] );
      ( "router",
        [
          Alcotest.test_case "epoch-minimum + failover" `Quick
            test_router_epoch_minimum;
          Alcotest.test_case "connection bound" `Quick test_router_sheds_past_bound;
          Alcotest.test_case "redial a replica's idle-closed connection" `Quick
            test_router_redials_idle_replica;
        ] );
      ("composed faults", [ test_composed_faults ]);
    ]
