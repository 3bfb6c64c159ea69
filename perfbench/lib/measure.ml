(* Exact sample statistics, /proc readers and the result line. *)

let sorted_copy samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. Exact — every answer is one of the raw
   samples, never a bucket bound. *)
let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  if not (p > 0. && p <= 100.) then invalid_arg "Measure.percentile: p outside (0, 100]";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  sorted.(max 1 (min n rank) - 1)

let percentile samples p = percentile_sorted (sorted_copy samples) p

(* The usual median: the mean of the two middle samples for even n. *)
let median samples =
  let s = sorted_copy samples in
  let n = Array.length s in
  if n = 0 then invalid_arg "Measure.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mean samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Measure.mean: no samples";
  Array.fold_left ( +. ) 0. samples /. float_of_int n

(* [hits] as a share of [hits + misses]; 0 when both are 0. *)
let ratio hits misses = float_of_int hits /. float_of_int (max 1 (hits + misses))

(* ---------------------------- /proc --------------------------------- *)

let clock_ticks_per_s = 100.
(* USER_HZ: the unit of utime/stime in /proc/<pid>/stat on Linux. *)

(* CPU seconds (user + system, all threads) from the text of
   /proc/<pid>/stat. The command name is parenthesised and may itself
   hold spaces and parentheses, so fields are counted after the last
   ')': state is field 3 there, utime field 14, stime field 15. *)
let cpu_s_of_stat text =
  match String.rindex_opt text ')' with
  | None -> failwith "Measure.cpu_s_of_stat: no command field"
  | Some i ->
    let rest = String.sub text (i + 1) (String.length text - i - 1) in
    let fields = String.split_on_char ' ' (String.trim rest) |> List.filter (( <> ) "") in
    let field k =
      match List.nth_opt fields (k - 3) with
      | Some f -> float_of_string f
      | None -> failwith "Measure.cpu_s_of_stat: truncated"
    in
    (field 14 +. field 15) /. clock_ticks_per_s

(* A "Key:   1234 kB" line of /proc/<pid>/status, in kB. *)
let status_kb text key =
  let prefix = key ^ ":" in
  let plen = String.length prefix in
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         if String.length line >= plen && String.sub line 0 plen = prefix then
           match
             String.split_on_char ' '
               (String.sub line plen (String.length line - plen))
             |> List.concat_map (String.split_on_char '\t')
             |> List.filter (( <> ) "")
           with
           | v :: _ -> int_of_string_opt v
           | [] -> None
         else None)

(* (steal, total) clock ticks of all CPUs, from the first line of
   /proc/stat: time the hypervisor ran something else. *)
let steal_ticks () =
  match String.split_on_char ' ' (List.hd (String.split_on_char '\n' (In_channel.with_open_bin "/proc/stat" In_channel.input_all))) |> List.filter (( <> ) "") with
  | "cpu" :: fields ->
    let v = List.map int_of_string fields in
    ((match List.nth_opt v 7 with Some s -> s | None -> 0), List.fold_left ( + ) 0 v)
  | _ -> (0, 0)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_file_opt path = try Some (read_file path) with Sys_error _ -> None

(* CPU seconds a thread has run, from the text of
   /proc/<pid>/task/<tid>/schedstat: its first field, in nanoseconds.
   utime and stime count 10 ms ticks, too coarse for a one-second
   slice. *)
let cpu_s_of_schedstat text =
  match String.split_on_char ' ' (String.trim text) with
  | ns :: _ :: _ -> (
    match Int64.of_string_opt ns with
    | Some v -> Int64.to_float v /. 1e9
    | None -> failwith "Measure.cpu_s_of_schedstat: not a number")
  | _ -> failwith "Measure.cpu_s_of_schedstat: truncated"

(* CPU seconds of the live threads of [pid]. A thread that has exited
   is not counted: take differences only across spans in which the
   threads doing the work live throughout. *)
let proc_threads_cpu_s pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file_opt (Filename.concat (Filename.concat dir tid) "schedstat") with
      | Some text -> acc +. cpu_s_of_schedstat text
      | None -> acc)
    0. (Sys.readdir dir)

let proc_cpu_s pid = cpu_s_of_stat (read_file (Printf.sprintf "/proc/%d/stat" pid))

let proc_hwm_mb pid =
  match status_kb (read_file (Printf.sprintf "/proc/%d/status" pid)) "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "Measure.proc_hwm_mb: no VmHWM line"

(* ---------------------------- result line --------------------------- *)

(* A metric or workload name: starts with a letter or digit, then
   letters, digits, '_', '.' and '-', at most 64 in all. *)
let valid_name s =
  let n = String.length s in
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let starts_ok = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false in
  n >= 1 && n <= 64 && starts_ok s.[0] && String.for_all ok_char s

type metric = { name : string; value : float; unit : string }

(* The last stdout line of a run: one JSON object. Values keep every
   digit the float has. *)
let result_line ~correct ~attempted ~failed metrics =
  List.iter
    (fun m ->
      if not (valid_name m.name) then invalid_arg ("Measure.result_line: bad name " ^ m.name);
      if not (Float.is_finite m.value) then
        invalid_arg ("Measure.result_line: non-finite " ^ m.name))
    metrics;
  let body =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " body)
