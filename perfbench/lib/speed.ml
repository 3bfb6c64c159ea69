(* How fast the CPU runs right now, from a fixed amount of work that
   shares no code with the program under test.

   On a shared virtual machine the speed of a vCPU wanders. On a 2-vCPU
   Xeon guest a fixed SHA-256 loop took from 1x to 2.3x its fastest
   time, in bursts of a second and in slow phases of minutes, with no
   correlation between the two vCPUs and almost no reported steal; the
   program slowed with it, in CPU time as well as wall time. So every
   role runs on one CPU, the runner times this kernel on that CPU beside
   the work, and a run reports each timing divided by the kernel's
   slowdown over the same interval: the figure at the reference speed
   [reference_s]. Over eight runs whose raw cost per query spread by
   23 %, the cost so set spread by 3 %; in a noisier hour, 35 % became
   16 %. A kernel that missed the cache instead tracked the program
   worse (11 % and 26 %).

   The kernel is timed in CPU seconds of its own process, so another
   process that takes the CPU while it runs does not make the machine
   look slower. *)

(* 4 KiB of ints: the kernel stays in the L1 cache, so it neither evicts
   the program's data nor depends on what the program left there. *)
let table = Array.init 512 (fun i -> i)

(* [iters] steps of integer mixing, a read-modify-write of [table] at a
   pseudo-random place, and a short-lived block. *)
let work iters =
  let mask = Array.length table - 1 in
  let x = ref 0x2545F491 and acc = ref 0 in
  for i = 1 to iters do
    let v = !x in
    let v = v lxor (v lsl 13) land 0x3FFFFFFFFFFF in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) land 0x3FFFFFFFFFFF in
    x := v;
    let j = v land mask in
    table.(j) <- table.(j) + (v lsr 11);
    acc := !acc + fst (Sys.opaque_identity (j, i))
  done;
  Sys.opaque_identity !acc

(* Steps in one timed unit. *)
let unit_iters = 2_000

(* CPU seconds of one unit at the reference speed: about its time on
   the machine the benchmark was tuned on, between two queries, when
   that machine ran fast. *)
let reference_s = 12.5e-6

let cpu_s () = Sys.time ()

(* One unit: the CPU seconds it took. *)
let unit_cpu_s () =
  let c0 = cpu_s () in
  ignore (work unit_iters);
  cpu_s () -. c0

(* The slowdown against the reference over [units] units that took
   [cpu_s] seconds in all; 1 when there were none. *)
let slowdown ~units ~cpu_s =
  if units = 0 then 1. else cpu_s /. (float_of_int units *. reference_s)

(* A background thread that times a unit every [period] seconds while
   the runner only waits, so that a set-up or an update can be set
   against the speed over its own interval. It takes about one per cent
   of the CPU. *)
module Probe = struct
  type sample = { at : float; cpu : float }

  type t = {
    mutable samples : sample list;
    mutable running : bool;
    mu : Mutex.t;
    mutable thread : Thread.t option;
  }

  let period = 0.005

  let create () = { samples = []; running = false; mu = Mutex.create (); thread = None }

  let start t =
    if not t.running then begin
      t.running <- true;
      t.thread <-
        Some
          (Thread.create
             (fun () ->
               while t.running do
                 let s = { at = Unix.gettimeofday (); cpu = unit_cpu_s () } in
                 Mutex.protect t.mu (fun () -> t.samples <- s :: t.samples);
                 Thread.delay period
               done)
             ())
    end

  let stop t =
    t.running <- false;
    Option.iter Thread.join t.thread;
    t.thread <- None

  (* The slowdown over [lo, hi], from the samples taken in it. *)
  let slowdown t ~lo ~hi =
    let n = ref 0 and c = ref 0. in
    Mutex.protect t.mu (fun () ->
        List.iter
          (fun s ->
            if s.at >= lo && s.at <= hi then begin
              incr n;
              c := !c +. s.cpu
            end)
          t.samples);
    slowdown ~units:!n ~cpu_s:!c
end
