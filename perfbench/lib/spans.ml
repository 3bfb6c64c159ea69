(* In-memory span recorder. A span is a timed call into one layer:
   name, start, end (Unix.gettimeofday seconds, the same clock in every
   process), the span that caused it and the request it belongs to.
   Spans are only appended while a run is measured and written out when
   it ends. Recording is thread- and domain-safe (owner signing runs on
   pool domains). *)

type span = { name : string; start : float; stop : float; parent : int; req : int }

let no_parent = -1

type t = { mu : Mutex.t; mutable buf : span array; mutable len : int }

let create () = { mu = Mutex.create (); buf = [||]; len = 0 }

let add t s =
  Mutex.lock t.mu;
  if t.len = Array.length t.buf then begin
    let bigger = Array.make (max 256 (2 * t.len)) s in
    Array.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end;
  t.buf.(t.len) <- s;
  let id = t.len in
  t.len <- t.len + 1;
  Mutex.unlock t.mu;
  id

let record t ?(parent = no_parent) ?(req = 0) name start stop =
  add t { name; start; stop; parent; req }

(* Time [f ()] as a span; [f] receives the span's id so nested calls can
   name it as their parent. The id is reserved before [f] runs. [start]
   backdates the span, e.g. to when the work was due. *)
let time t ?(parent = no_parent) ?(req = 0) ?start name f =
  let start = match start with Some s -> s | None -> Unix.gettimeofday () in
  let id = add t { name; start; stop = start; parent; req } in
  let finish () =
    let stop = Unix.gettimeofday () in
    Mutex.lock t.mu;
    t.buf.(id) <- { (t.buf.(id)) with stop };
    Mutex.unlock t.mu
  in
  Fun.protect ~finally:finish (fun () -> f id)

let to_array t =
  Mutex.lock t.mu;
  let a = Array.sub t.buf 0 t.len in
  Mutex.unlock t.mu;
  a

(* One span per line: name, start, stop, parent, req. *)
let save path spans =
  Out_channel.with_open_bin path (fun oc ->
      Array.iter
        (fun s -> Printf.fprintf oc "%s\t%.6f\t%.6f\t%d\t%d\n" s.name s.start s.stop s.parent s.req)
        spans)

let load path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (fun line ->
         match String.split_on_char '\t' line with
         | [ name; start; stop; parent; req ] ->
           {
             name;
             start = float_of_string start;
             stop = float_of_string stop;
             parent = int_of_string parent;
             req = int_of_string req;
           }
         | _ -> failwith ("Spans.load: bad line in " ^ path))
  |> Array.of_list

(* Append [child] spans (ids local to their own file) after [base],
   renumbering their parents. Each root span of [child] is adopted by
   the innermost span of [base] whose interval contains it, if any —
   how spans recorded in another process join the runner's tree. *)
let merge base child =
  let off = Array.length base in
  let adopt s =
    let best = ref no_parent in
    Array.iteri
      (fun i b ->
        if b.start <= s.start && s.stop <= b.stop then
          match !best with
          | j when j = no_parent -> best := i
          | j -> if b.stop -. b.start < base.(j).stop -. base.(j).start then best := i)
      base;
    !best
  in
  Array.append base
    (Array.map
       (fun s ->
         if s.parent = no_parent then { s with parent = adopt s }
         else { s with parent = s.parent + off })
       child)

(* Total length of the union of intervals, each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   its children cover (children may overlap, e.g. parallel signing). *)
let self_times spans =
  let children = Array.make (Array.length spans) [] in
  Array.iter
    (fun s -> if s.parent <> no_parent then
        children.(s.parent) <- (s.start, s.stop) :: children.(s.parent))
    spans;
  Array.mapi
    (fun i s -> s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop children.(i))
    spans

(* Wall-clock self time by span name over the subtrees rooted at spans
   named [root], and how many such roots there are. Sibling spans of one
   name under one parent may overlap (parallel signing); such a group
   counts once: the union of its intervals minus the union of its
   members' children. For sequential spans this is the sum of their self
   times, so the rows add up to the roots' total duration. *)
let self_by_name spans ~root =
  let n = Array.length spans in
  let under = Array.make n false and kids = Array.make n [] in
  Array.iteri
    (fun i s ->
      under.(i) <- s.name = root || (s.parent <> no_parent && under.(s.parent));
      if s.parent <> no_parent then kids.(s.parent) <- (s.start, s.stop) :: kids.(s.parent))
    spans;
  let groups = Hashtbl.create 64 and order = ref [] and roots = ref 0 in
  Array.iteri
    (fun i s ->
      if s.name = root then incr roots;
      if under.(i) then begin
        let key = ((if s.name = root then -2 - i else s.parent), s.name) in
        (match Hashtbl.find_opt groups key with
        | Some l -> Hashtbl.replace groups key (i :: l)
        | None -> Hashtbl.replace groups key [ i ]);
        if not (List.mem s.name !order) then order := s.name :: !order
      end)
    spans;
  let totals = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (_, name) members ->
      let own = List.map (fun i -> (spans.(i).start, spans.(i).stop)) members in
      let children = List.concat_map (fun i -> kids.(i)) members in
      let wall =
        covered ~lo:neg_infinity ~hi:infinity own
        -. covered ~lo:neg_infinity ~hi:infinity children
      in
      Hashtbl.replace totals name
        (wall +. Option.value ~default:0. (Hashtbl.find_opt totals name)))
    groups;
  (!roots, List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order)

type row = { r_name : string; count : int; total_s : float }

(* Per span name: how many, and their summed duration; in order of first
   appearance. *)
let summary spans =
  let tbl = Hashtbl.create 16 and order = ref [] in
  Array.iter
    (fun s ->
      let c, t =
        match Hashtbl.find_opt tbl s.name with
        | Some v -> v
        | None ->
          order := s.name :: !order;
          (0, 0.)
      in
      Hashtbl.replace tbl s.name (c + 1, t +. (s.stop -. s.start)))
    spans;
  List.rev_map
    (fun name ->
      let count, total_s = Hashtbl.find tbl name in
      { r_name = name; count; total_s })
    !order
