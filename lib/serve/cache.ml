(* Classic hashtable + doubly-linked recency list, most recent at the
   head. The sentinel node closes the ring so unlink/push need no
   option cases.

   In front of it sits a doorkeeper: a fixed array of key fingerprints
   ([Hashtbl.hash key] at slot [hash land door_mask]). A miss is cached
   only when its fingerprint already sits in its slot, that is on the
   key's second offer; any other miss just records the fingerprint. So
   one-off requests never evict the replies that come back, and cost a
   hash and a store instead of a node and a table entry. A collision can
   only admit a reply early: the table is still keyed by the full key. *)

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
  door : int array;  (* fingerprints seen once; -1 = empty *)
  mutable first_offers : int;  (* since the door was last cleared *)
  mu : Mutex.t;
}

let door_mask = (1 lsl 14) - 1

let make_sentinel () =
  let rec s = { key = ""; value = ""; prev = s; next = s } in
  s

let create ~capacity =
  {
    capacity;
    tbl = Hashtbl.create (max 16 (min capacity 4096));
    sentinel = make_sentinel ();
    door = (if capacity > 0 then Array.make (door_mask + 1) (-1) else [||]);
    first_offers = 0;
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

(* true on the key's second offer; otherwise remembers its fingerprint,
   in a door cleared after as many first offers as it has slots *)
let admit t key =
  let h = Hashtbl.hash key in
  let slot = h land door_mask in
  t.door.(slot) = h
  || begin
    t.first_offers <- t.first_offers + 1;
    if t.first_offers > door_mask then begin
      Array.fill t.door 0 (door_mask + 1) (-1);
      t.first_offers <- 0
    end;
    t.door.(slot) <- h;
    false
  end

let add t key value =
  if t.capacity > 0 then
    locked t (fun () ->
        match Hashtbl.find_opt t.tbl key with
        | Some n ->
          n.value <- value;
          unlink n;
          push_front t n
        | None ->
          if admit t key then begin
            let rec n = { key; value; prev = n; next = n } in
            Hashtbl.replace t.tbl key n;
            push_front t n;
            if Hashtbl.length t.tbl > t.capacity then begin
              let lru = t.sentinel.prev in
              unlink lru;
              Hashtbl.remove t.tbl lru.key
            end
          end)
