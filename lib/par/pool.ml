type task = unit -> unit

type pool = {
  mutex : Mutex.t;
  cond : Condition.t;
      (* signalled on task enqueue, job completion, and shutdown; idle
         workers and waiting callers share it and re-check their own
         predicate on wake-up *)
  queue : task Queue.t;
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
  size : int;
}

let max_domains = 128

let env_domains () =
  match Sys.getenv_opt "AQV_DOMAINS" with
  | None -> None
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some (min n max_domains)
    | _ -> None)

let default_size () =
  match env_domains () with
  | Some n -> n
  | None -> max 1 (min max_domains (Domain.recommended_domain_count ()))

let size p = p.size

(* Workers exit when [stopped]; otherwise they sleep until a task shows
   up. A task never lets an exception escape (parallel jobs stash their
   exceptions per chunk), but guard anyway: a dead worker would silently
   halve the pool. *)
let worker_loop p () =
  let rec next () =
    if p.stopped then None
    else
      match Queue.take_opt p.queue with
      | Some t -> Some t
      | None ->
        Condition.wait p.cond p.mutex;
        next ()
  in
  let rec loop () =
    Mutex.lock p.mutex;
    let t = next () in
    Mutex.unlock p.mutex;
    match t with
    | None -> ()
    | Some task ->
      (try task () with _ -> ());
      loop ()
  in
  loop ()

let create ?domains () =
  let size =
    match domains with
    | Some n ->
      if n < 1 then invalid_arg "Pool.create: domains < 1";
      min n max_domains
    | None -> default_size ()
  in
  let p =
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      queue = Queue.create ();
      stopped = false;
      workers = [||];
      size;
    }
  in
  p.workers <- Array.init (size - 1) (fun _ -> Domain.spawn (worker_loop p));
  p

let shutdown p =
  Mutex.lock p.mutex;
  let first = not p.stopped in
  p.stopped <- true;
  Condition.broadcast p.cond;
  Mutex.unlock p.mutex;
  if first then Array.iter Domain.join p.workers;
  p.workers <- [||]

let alive p = (not p.stopped) && Array.length p.workers > 0

(* Chunks per executor: >1 so heterogeneous chunk costs (e.g. subdomains
   of very different crossing counts) still balance. *)
let oversubscription = 4

let parallel_init p n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  if n = 0 then [||]
  else if n = 1 || p.size <= 1 || not (alive p) then Array.init n f
  else begin
    let nchunks = min n (p.size * oversubscription) in
    let chunk_start c = c * n / nchunks in
    let results = Array.make nchunks None in
    let errors = Array.make nchunks None in
    let remaining = ref nchunks in
    let run_chunk c =
      (match
         let lo = chunk_start c and hi = chunk_start (c + 1) in
         Array.init (hi - lo) (fun k -> f (lo + k))
       with
      | r -> results.(c) <- Some r
      | exception e -> errors.(c) <- Some (e, Printexc.get_raw_backtrace ()));
      Mutex.lock p.mutex;
      decr remaining;
      if !remaining = 0 then Condition.broadcast p.cond;
      Mutex.unlock p.mutex
    in
    Mutex.lock p.mutex;
    for c = 1 to nchunks - 1 do
      Queue.add (fun () -> run_chunk c) p.queue
    done;
    Condition.broadcast p.cond;
    Mutex.unlock p.mutex;
    run_chunk 0;
    (* Help until this job is done. Draining the shared queue (not just
       our own chunks) is what makes nested maps safe: an outer chunk
       blocked here keeps executing inner chunks. *)
    let rec help () =
      Mutex.lock p.mutex;
      if !remaining = 0 then Mutex.unlock p.mutex
      else
        match Queue.take_opt p.queue with
        | Some task ->
          Mutex.unlock p.mutex;
          task ();
          help ()
        | None ->
          Condition.wait p.cond p.mutex;
          Mutex.unlock p.mutex;
          help ()
    in
    help ();
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.concat
      (Array.to_list (Array.map (function Some r -> r | None -> assert false) results))
  end

let parallel_map p f a =
  let n = Array.length a in
  if n = 0 then [||] else parallel_init p n (fun i -> f (Array.unsafe_get a i))

(* ------------------------- process-global pool ---------------------- *)

let default_lock = Mutex.create ()
let default_ref : pool option ref = ref None

let default () =
  Mutex.lock default_lock;
  let p =
    match !default_ref with
    | Some p when not p.stopped -> p
    | _ ->
      let p = create () in
      default_ref := Some p;
      p
  in
  Mutex.unlock default_lock;
  p

let () =
  at_exit (fun () ->
      match !default_ref with Some p -> shutdown p | None -> ())
