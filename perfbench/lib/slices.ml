(* The read window cut into one-second slices, and the per-query figures
   a run reports from them. Each slice carries the speed kernel's units
   timed between its queries (see {!Speed}), and its figures are set to
   the reference speed by the slice's own slowdown. Every figure is the
   median slice's: a burst of host load that slows fewer than half the
   slices does not move it, where a percentile over the whole window
   took in every burst's slow replies. *)

type t = {
  queries : int;  (** verified replies *)
  wall_s : float;  (** the slice's wall time, the kernel's units excluded *)
  lat_s : float array;  (** request sent to reply verified, one per reply *)
  server_cpu_s : float;
  client_cpu_s : float;  (** the kernel's units excluded *)
  speed_units : int;
  speed_cpu_s : float;
}

let slowdown s = Speed.slowdown ~units:s.speed_units ~cpu_s:s.speed_cpu_s

let usable slices = List.filter (fun s -> s.queries > 0 && s.wall_s > 0.) slices

let median_of f slices = Measure.median (Array.of_list (List.map f (usable slices)))

(* Verified replies per second. *)
let throughput slices =
  median_of (fun s -> float_of_int s.queries /. s.wall_s *. slowdown s) slices

(* The [p]th percentile of latency, in seconds. *)
let latency slices p = median_of (fun s -> Measure.percentile s.lat_s p /. slowdown s) slices

let per_query f slices =
  median_of (fun s -> f s /. float_of_int s.queries /. slowdown s) slices

(* CPU seconds per reply. *)
let server_cpu slices = per_query (fun s -> s.server_cpu_s) slices

let client_cpu slices = per_query (fun s -> s.client_cpu_s) slices
