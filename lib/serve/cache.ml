(* Classic hashtable + doubly-linked recency list, most recent at the
   head. The sentinel node closes the ring so unlink/push need no
   option cases. *)

type node = {
  key : string;
  mutable value : string;
  mutable prev : node;
  mutable next : node;
}

type t = {
  capacity : int;
  tbl : (string, node) Hashtbl.t;
  sentinel : node;
  mu : Mutex.t;
}

let make_sentinel () =
  let rec s = { key = ""; value = ""; prev = s; next = s } in
  s

let create ~capacity =
  {
    capacity;
    tbl = Hashtbl.create (max 16 (min capacity 4096));
    sentinel = make_sentinel ();
    mu = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev

let push_front t n =
  n.next <- t.sentinel.next;
  n.prev <- t.sentinel;
  t.sentinel.next.prev <- n;
  t.sentinel.next <- n

let find t key =
  if t.capacity <= 0 then None
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | None -> None
        | Some n ->
          unlink n;
          push_front t n;
          Some n.value)

let add t key value =
  if t.capacity > 0 then
    locked t (fun () ->
        (match Hashtbl.find_opt t.tbl key with
        | Some n ->
          n.value <- value;
          unlink n;
          push_front t n
        | None ->
          let rec n = { key; value; prev = n; next = n } in
          Hashtbl.replace t.tbl key n;
          push_front t n);
        if Hashtbl.length t.tbl > t.capacity then begin
          let lru = t.sentinel.prev in
          unlink lru;
          Hashtbl.remove t.tbl lru.key
        end)
