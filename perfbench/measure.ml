(* Clocks, order statistics and the per-layer accumulator of the traced
   replay.  Everything here is the benchmark's own instrumentation: it
   times calls into the mclock libraries from the outside and never
   reaches into them. *)

let now = Unix.gettimeofday

(* Process CPU time (getrusage, all threads), so work moved onto the
   loopback server's thread shows up in the CPU metric. *)
let cpu = Sys.time

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 0 for no samples: a run with no successful op reports zeros, and
   its failures carry the verdict. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile that still has ten samples above it: the
   eleventh-largest sample.  With ten samples or fewer no such
   percentile exists, and the median stands in. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n >= 11 then a.(n - 11) else median xs

let ratio a b = if b = 0. then 0. else a /. b

(* --- Per-layer accumulator ---------------------------------------------- *)

type slot = { mutable busy_s : float; mutable calls : int }

type layers = (string, slot) Hashtbl.t

let layers () : layers = Hashtbl.create 32

let slot (l : layers) name =
  match Hashtbl.find_opt l name with
  | Some s -> s
  | None ->
      let s = { busy_s = 0.; calls = 0 } in
      Hashtbl.add l name s;
      s

let charge l name ~calls dt =
  let s = slot l name in
  s.busy_s <- s.busy_s +. dt;
  s.calls <- s.calls + calls

(* Time one call into a layer.  A raising call is not charged: the op
   it belongs to fails, and a failed op reports no layer metrics. *)
let time l name f =
  let t0 = now () in
  let r = f () in
  charge l name ~calls:1 (now () -. t0);
  r

(* A count that is not a call (cycles, bytes, hits). *)
let count l name n = charge l name ~calls:n 0.

let busy_ms l name =
  match Hashtbl.find_opt l name with Some s -> 1000. *. s.busy_s | None -> 0.

let calls l name =
  match Hashtbl.find_opt l name with Some s -> float s.calls | None -> 0.

(* --- Host-speed calibration ---------------------------------------------- *)

(* The machines this runs on are shared, and their speed drifts by up
   to 2x over tens of seconds as other tenants come and go: a median
   over one run cannot hide a slow minute.  So a fixed kernel owned by
   the benchmark runs between operations — list and hash-table churn
   plus float-array churn into a retained ring, the allocation pattern
   of the mclock analyzers — and every timing is scaled by
   [nominal_s /. t], with [t] the mean of the kernel's times just
   before and just after it.  The kernel shares no code with mclock,
   so a change to mclock moves a scaled time exactly as it moves the
   raw time at a steady host speed; the scaled time reads as seconds
   on a host where the kernel takes [nominal_s]. *)

let nominal_s = 0.05

let churn_lists () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0. in
  for i = 0 to 300_000 do
    let l = List.init 8 (fun j -> float (i + j)) in
    acc := !acc +. (List.fold_left ( +. ) 0. l *. 1.0001);
    Hashtbl.replace h (i land 1023) !acc
  done;
  !acc

let ring = Array.make 4096 [||]

let churn_floats () =
  let acc = ref 0. in
  for i = 0 to 150_000 do
    let a = Array.init 8 (fun j -> float (i lxor j) *. 0.5) in
    let b = ring.(i * 7919 land 4095) in
    if Array.length b = 8 then begin
      let mixed = Array.map2 (fun x y -> x *. (1. -. y)) a b in
      acc := !acc +. Array.fold_left ( +. ) 0. mixed
    end;
    if i land 3 = 0 then ring.(i land 4095) <- a
  done;
  !acc

(* One run of the kernel, in seconds. *)
let calibrate () =
  let t0 = now () in
  let work = churn_lists () +. churn_floats () +. churn_floats () in
  ignore (Sys.opaque_identity work);
  now () -. t0

(* The factor that scales a timing taken between two calibrations. *)
let scale ~before ~after = nominal_s /. ((before +. after) /. 2.)
