(* The mclock benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               --work-dir DIR [--corrupt K]

   One process, one worker (--jobs 1), one workload.  Set-up (inputs,
   temporary stores, the loopback server, the oracles) runs three
   times and is timed; then operations repeat for [--seconds] and each
   one is timed alone, with fresh stores made and removed outside the
   clock.  Every operation's output is checked against an oracle
   computed in the same run, so no seed needs a committed digest.

   --trace 0 reports the end-to-end metrics of the untraced entry
   points.  --trace 1 alternates untraced operations with replays
   through the layers' public functions (see Replay) and reports the
   per-layer metrics; a replay whose documents differ from the
   untraced ones fails.

   --corrupt K tampers with operation K's document before its check,
   so the self-check can see the failure counted.

   Stdout: one "name = value unit" line per metric, then one JSON
   object {correct, attempted, failed, metrics} as the last line.
   Exit 0 when every operation passed, 1 when any failed, 2 when the
   run could not be set up.  See perfbench/README.md for the design. *)

open Mclock_explore
module Workload = Mclock_workloads.Workload
module Report = Mclock_power.Report
module Registry = Mclock_obs.Registry
module Client = Mclock_remote.Client
module Server = Mclock_remote.Server
module Json = Mclock_lint.Json

(* --- Command line -------------------------------------------------------- *)

let workload_name = ref ""
let seed = ref 0
let seconds = ref 10.
let trace = ref 0
let work_dir = ref ""
let corrupt = ref (-1)

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload_name, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer replay");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory");
      ("--corrupt", Arg.Set_int corrupt, "K tamper with op K's document");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR"

let setups = 3
let process_start = Measure.now ()

(* Past this, stop starting operations whatever [--seconds] says. *)
let deadline_s = 150.

(* --- Scratch directories ------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let scratch =
  lazy
    (let dir =
       Filename.concat !work_dir (Printf.sprintf "run-%d" (Unix.getpid ()))
     in
     List.iter
       (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
       [ !work_dir; dir ];
     dir)

let fresh_dir =
  let n = ref 0 in
  fun tag ->
    incr n;
    Filename.concat (Lazy.force scratch) (Printf.sprintf "%s-%d" tag !n)

let fresh_store tag =
  let dir = fresh_dir tag in
  (dir, Store.open_ ~dir ())

(* --- Workloads ------------------------------------------------------------ *)

(* One operation, set up outside the clock.  [run] is the timed entry
   point and [replay] the same work through the layers' public
   functions; either leaves its result for [check], which gets the
   document through [tamper] and returns a failure reason, if any.
   [extras] are the per-layer metrics only the workload can compute,
   read after a replay. *)
type op = {
  run : unit -> unit;
  replay : Measure.layers -> unit;
  check : tamper:(string -> string) -> string option;
  extras : unit -> (string * float) list;
  close : unit -> unit;
}

type instance = {
  cells : int;  (** design cells one operation answers *)
  oracle : string;  (** digest of the set-up's oracles *)
  next_op : unit -> op;
  teardown : unit -> unit;
}

let pool = Mclock_exec.Pool.create ~jobs:1 ()

let hal = Option.get (Mclock_workloads.Catalog.find "hal")

let explore_ctx ~seed =
  {
    Replay.name = hal.Workload.name;
    graph = Workload.graph hal;
    sched_constraints = hal.Workload.constraints;
    seed;
    iterations = 400;
    max_clocks = 4;
  }

let explore (c : Replay.ctx) ?cache () =
  Engine.explore ~pool ?cache ~seed:c.seed ~iterations:c.iterations
    ~max_clocks:c.max_clocks ~name:c.name
    ~sched_constraints:c.sched_constraints c.graph

let frontier r = Json.to_string (Engine.frontier_json r)

let cell_metrics (c : Engine.cell) =
  match c.Engine.status with
  | Engine.Cached m | Engine.Simulated m -> Some m
  | Engine.Pruned _ | Engine.Skipped _ -> None

let first_error checks =
  List.find_map (fun (ok, why) -> if ok then None else Some why) checks

let get r =
  match !r with Some v -> v | None -> failwith "operation left no result"

(* The checks both explore workloads share: the frontier document
   against the oracle's and every cell's metrics bit for bit against
   the oracle's cells. *)
let check_explore ~tamper ~(oracle : Engine.result) (r : Engine.result) =
  first_error
    [
      ( tamper (frontier r) = frontier oracle,
        "frontier differs from the oracle" );
      ( List.length r.Engine.cells = List.length oracle.Engine.cells
        && List.for_all2
             (fun a b ->
               match (cell_metrics a, cell_metrics b) with
               | Some ma, Some mb -> Metrics.equal ma mb
               | _ -> false)
             r.Engine.cells oracle.Engine.cells,
        "cell metrics differ from the oracle" );
      (r.Engine.stats.Engine.store_failures = 0, "store failures");
    ]

(* Static estimate error and certified-bound slack, in percent of the
   simulated power, medians over the cells evaluated at full
   fidelity. *)
let static_accuracy (space : Engine.space) evaluated =
  let pairs =
    List.filter_map
      (fun (index, m) ->
        List.find_opt
          (fun (p : Engine.prepared) -> p.Engine.p_index = index)
          space.Engine.sp_cells
        |> Option.map (fun p -> (p, m)))
      evaluated
  in
  let pct f =
    Measure.median
      (List.map
         (fun ((p : Engine.prepared), (m : Metrics.t)) ->
           100. *. f p m.Metrics.power_mw /. m.Metrics.power_mw)
         pairs)
  in
  [
    ( "static.est_err_pct",
      pct (fun p sim -> Float.abs (p.Engine.p_est_power_mw -. sim)) );
    ( "static.bound_slack_pct",
      pct (fun p sim -> p.Engine.p_bounds.Metrics.b_power_mw -. sim) );
  ]

let explore_extras ~store (space, (r : Engine.result)) =
  static_accuracy space
    (List.filter_map
       (fun (i, c) -> Option.map (fun m -> (i, m)) (cell_metrics c))
       (List.mapi (fun i c -> (i, c)) r.Engine.cells))
  @ [
      ("explore.pruned", float r.Engine.stats.Engine.pruned);
      ("store.failures", float (Store.stats store).Store.store_failures);
    ]

(* explore-cold: one Engine.explore into a fresh, empty store. *)
let explore_cold ~seed =
  let c = explore_ctx ~seed in
  let oracle = explore c () in
  let cells = oracle.Engine.stats.Engine.enumerated in
  let next_op () =
    let dir, store = fresh_store "cold" in
    let result = ref None and replayed = ref None in
    {
      run = (fun () -> result := Some (explore c ~cache:store ()));
      replay =
        (fun l ->
          let sr = Replay.explore l ~pool ~store c in
          replayed := Some sr;
          result := Some (snd sr));
      check =
        (fun ~tamper ->
          let r = get result in
          match check_explore ~tamper ~oracle r with
          | Some e -> Some e
          | None ->
              first_error
                [
                  ( r.Engine.stats.Engine.simulated = cells,
                    "not every cell simulated" );
                  ( List.for_all
                      (fun (cell : Engine.cell) ->
                        match cell.Engine.status with
                        | Engine.Simulated m ->
                            m.Metrics.power_mw
                            <= cell.Engine.bounds.Metrics.b_power_mw
                        | _ -> false)
                      r.Engine.cells,
                    "simulated power above its certified bound" );
                ]);
      extras = (fun () -> explore_extras ~store (get replayed));
      close = (fun () -> rm_rf dir);
    }
  in
  { cells; oracle = frontier oracle; next_op; teardown = ignore }

(* explore-warm-remote: the same explore into an empty local store
   whose remote tier is a loopback server over a store the set-up
   filled. *)
let explore_warm_remote ~seed =
  let c = explore_ctx ~seed in
  let fill_dir, fill_store = fresh_store "fill" in
  let oracle = explore c ~cache:fill_store () in
  let cells = oracle.Engine.stats.Engine.enumerated in
  let server =
    match Server.create ~dir:fill_dir () with
    | Ok s -> s
    | Error e -> failwith ("loopback server: " ^ e)
  in
  Server.start server;
  let client =
    match Client.create ~url:(Server.url server) () with
    | Ok cl -> cl
    | Error e ->
        Server.stop server;
        failwith ("client: " ^ e)
  in
  let next_op () =
    let dir, store = fresh_store "warm" in
    let client_before = Client.stats client in
    let connections () = (Server.stats server).Server.s_connections in
    let connections_before = connections () in
    let request_ms = ref [] in
    let result = ref None and replayed = ref None in
    let attach tier = Store.set_remote store (Some tier) in
    attach (Client.tier client);
    let client_delta f = f (Client.stats client) - f client_before in
    {
      run = (fun () -> result := Some (explore c ~cache:store ()));
      replay =
        (fun l ->
          attach (Replay.timed_tier l ~request_ms (Client.tier client));
          let sr = Replay.explore l ~pool ~store c in
          replayed := Some sr;
          result := Some (snd sr));
      check =
        (fun ~tamper ->
          let r = get result in
          match check_explore ~tamper ~oracle r with
          | Some e -> Some e
          | None ->
              first_error
                [
                  ( r.Engine.stats.Engine.simulated = 0,
                    "cells simulated on a warm remote" );
                  ( (Store.stats store).Store.remote_fills = cells,
                    "not every cell filled from the remote" );
                  ( client_delta (fun s -> s.Client.remote_errors) = 0
                    && client_delta (fun s -> s.Client.remote_misses) = 0,
                    "remote fetch errored or missed" );
                ]);
      extras =
        (fun () ->
          let requests = List.length !request_ms in
          explore_extras ~store (get replayed)
          @ [
              ("remote.request_p50_ms", Measure.median !request_ms);
              ("remote.fills", float (Store.stats store).Store.remote_fills);
              ( "remote.errors",
                float (client_delta (fun s -> s.Client.remote_errors)) );
              ( "remote.retries",
                float
                  (max 0 (client_delta (fun s -> s.Client.attempts) - requests))
              );
              ( "remote.connections",
                float (connections () - connections_before) );
            ]);
      close = (fun () -> rm_rf dir);
    }
  in
  {
    cells;
    oracle = frontier oracle;
    next_op;
    teardown =
      (fun () ->
        Server.stop server;
        rm_rf fill_dir);
  }

(* search-cold: one Halving.run (default resume) into a fresh store;
   its winner must be the exhaustive grid's best. *)
let search_cold ~seed =
  let c = explore_ctx ~seed in
  let exhaustive = explore c () in
  let best =
    match Engine.best ~objective:Objective.default exhaustive with
    | Some (cell, _) -> cell
    | None -> failwith "exhaustive grid has no functional cell"
  in
  let best_metrics = Option.get (cell_metrics best) in
  let reference = ref None in
  let next_op () =
    let dir, store = fresh_store "search" in
    let result = ref None and replayed = ref None in
    {
      run =
        (fun () ->
          result :=
            Some
              (Halving.run ~pool ~cache:store ~seed:c.seed
                 ~iterations:c.iterations ~max_clocks:c.max_clocks
                 ~name:c.name ~sched_constraints:c.sched_constraints c.graph));
      replay =
        (fun l ->
          let sr = Replay.search l ~pool ~store c in
          replayed := Some sr;
          result := Some (snd sr));
      check =
        (fun ~tamper ->
          let r = get result in
          let doc = Json.to_string (Halving.result_json r) in
          if !reference = None then reference := Some doc;
          first_error
            [
              ( Some (tamper doc) = !reference,
                "search document differs across operations" );
              ( (match r.Halving.winner with
                | Some w ->
                    w.Halving.c_label = best.Engine.cell_label
                    && Metrics.equal w.Halving.c_metrics best_metrics
                | None -> false),
                "winner is not the exhaustive best" );
              (r.Halving.stats.Halving.store_failures = 0, "store failures");
            ]);
      extras =
        (fun () ->
          let space, r = get replayed in
          let full =
            match List.rev r.Halving.rungs with
            | last :: _ ->
                List.map
                  (fun cand -> (cand.Halving.c_index, cand.Halving.c_metrics))
                  last.Halving.r_candidates
            | [] -> []
          in
          static_accuracy space full
          @ [
              ("explore.search.rungs", float (List.length r.Halving.rungs));
              ( "explore.search.iter_ratio",
                Measure.ratio
                  (float r.Halving.stats.Halving.simulated_iterations)
                  (float r.Halving.exhaustive_iterations) );
              ( "store.failures",
                float (Store.stats store).Store.store_failures );
            ]);
      close = (fun () -> rm_rf dir);
    }
  in
  {
    cells = List.length exhaustive.Engine.cells;
    oracle =
      Printf.sprintf "%s %h" best.Engine.cell_label
        best_metrics.Metrics.power_mw;
    next_op;
    teardown = ignore;
  }

(* paper-tables: Report.evaluate_batch over the five-design suite of
   every paper-table DFG. *)
let table_iterations = 3000
let crosscheck_iterations = 50

let rows reports =
  Mclock_util.Table.render (Report.paper_table reports)
  ^ String.concat ""
      (List.map
         (fun (r : Report.t) ->
           Printf.sprintf "%s %h %h%s\n" r.Report.label r.Report.power_mw
             r.Report.energy_per_computation_pj
             (String.concat ""
                (List.map
                   (fun (_, e) -> Printf.sprintf " %h" e)
                   r.Report.energy_by_category)))
         reports)

let paper_tables ~seed =
  let cells =
    List.concat_map
      (fun w ->
        let graph = Workload.graph w in
        Mclock_core.Flow.standard_suite ~name:w.Workload.name
          (Workload.schedule w)
        |> List.map (fun (m, design) ->
               (Mclock_core.Flow.method_label m, design, graph)))
      Mclock_workloads.Catalog.paper_tables
  in
  (* The reference interpreter stays the oracle for the compiled kernel. *)
  let short kernel =
    Report.evaluate_batch ~pool ~seed ~iterations:crosscheck_iterations ~kernel
      Replay.tech cells
  in
  let compiled = short `Compiled and reference = short `Reference in
  List.iter2
    (fun (a : Report.t) (b : Report.t) ->
      let agree =
        Float.equal a.Report.energy_per_computation_pj
          b.Report.energy_per_computation_pj
        && Float.equal a.Report.power_mw b.Report.power_mw
        && a.Report.functional_ok = b.Report.functional_ok
      in
      if not agree then
        failwith (a.Report.label ^ ": compiled and reference kernels disagree"))
    compiled reference;
  let reference_rows = ref None in
  let next_op () =
    let result = ref None in
    {
      run =
        (fun () ->
          result :=
            Some
              (Report.evaluate_batch ~pool ~seed ~iterations:table_iterations
                 ~kernel:`Compiled Replay.tech cells));
      replay =
        (fun l ->
          result :=
            Some
              (Replay.tables l ~pool ~seed ~iterations:table_iterations cells));
      check =
        (fun ~tamper ->
          let reports = get result in
          let doc = rows reports in
          if !reference_rows = None then reference_rows := Some doc;
          let failing =
            List.filter_map
              (fun (r : Report.t) ->
                if r.Report.functional_ok then None
                else Some (r.Report.design_name ^ "/" ^ r.Report.label))
              reports
          in
          first_error
            [
              ( failing = [],
                "golden verification failed: " ^ String.concat ", " failing );
              ( Some (tamper doc) = !reference_rows,
                "table rows differ across operations" );
            ]);
      extras = (fun () -> []);
      close = ignore;
    }
  in
  {
    cells = List.length cells;
    oracle = rows compiled;
    next_op;
    teardown = ignore;
  }

let workloads =
  [
    ("explore-cold", explore_cold);
    ("explore-warm-remote", explore_warm_remote);
    ("search-cold", search_cold);
    ("paper-tables", paper_tables);
  ]

(* --- Measuring ------------------------------------------------------------ *)

(* [wall_s] and [cpu_s] are raw; [scale] is the host-speed factor of
   the calibrations around the op (see Measure.calibrate). *)
type sample = { wall_s : float; cpu_s : float; scale : float; failed : bool }

let tamper_for index doc =
  if index <> !corrupt then doc
  else if doc = "" then "corrupt"
  else
    String.mapi
      (fun i ch -> if i = 0 then Char.chr (Char.code ch lxor 1) else ch)
      doc

let last_calibration = ref 0.

(* Calibrate, returning the factor for whatever ran since the previous
   calibration. *)
let recalibrate () =
  let before = !last_calibration in
  let after = Measure.calibrate () in
  last_calibration := after;
  Measure.scale ~before ~after

(* Run one op: fresh state outside the clock, the timed call, a
   calibration, then the check.  Any exception or oracle mismatch
   fails the op. *)
let measure index op f =
  Gc.compact ();
  let t0 = Measure.now () and c0 = Measure.cpu () in
  let outcome = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let wall_s = Measure.now () -. t0 and cpu_s = Measure.cpu () -. c0 in
  let scale = recalibrate () in
  let failure =
    match outcome with
    | Error e -> Some e
    | Ok () -> (
        try op.check ~tamper:(tamper_for index)
        with e -> Some (Printexc.to_string e))
  in
  Option.iter (Printf.eprintf "op %d failed: %s\n%!" index) failure;
  { wall_s; cpu_s; scale; failed = failure <> None }

let max_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let pool_tasks () =
  Option.value ~default:0
    (Registry.get (Mclock_exec.Pool.registry pool) "tasks")

(* The per-layer metrics of one replay, with their units, in the order
   BENCHMARK.json lists them.  [extras] fill the workload-specific
   names; the rest read 0 where a layer did no work.  Times and rates
   are scaled by the replay's host-speed factor, like the end-to-end
   timings. *)
let layer_metrics l ~wall_s ~scale ~tasks ~extras =
  let ms = Measure.busy_ms l and n = Measure.calls l in
  let extra name = Option.value (List.assoc_opt name extras) ~default:0. in
  let timed =
    [ "sched"; "synth"; "static"; "key"; "find"; "ckpt_find"; "store";
      "ckpt_store"; "compile"; "run"; "verify"; "ckpt_encode"; "ckpt_decode";
      "exec"; "frontier" ]
  in
  let attributed = List.fold_left (fun acc name -> acc +. ms name) 0. timed in
  [
    ("sched.calls", n "sched", "count");
    ("sched.busy_ms", ms "sched", "ms");
    ("core.synth_calls", n "synth", "count");
    ("core.synth_busy_ms", ms "synth", "ms");
    ("static.calls", n "static", "count");
    ("static.busy_ms", ms "static", "ms");
    ("static.ms_per_cell", Measure.ratio (ms "static") (n "static"), "ms");
    ("static.share", Measure.ratio (ms "static") (1000. *. wall_s), "ratio");
    ("static.to_sim_ratio", Measure.ratio (ms "static") (ms "run"), "ratio");
    ("static.est_err_pct", extra "static.est_err_pct", "%");
    ("static.bound_slack_pct", extra "static.bound_slack_pct", "%");
    ("sim.compile_calls", n "compile", "count");
    ("sim.compile_busy_ms", ms "compile", "ms");
    ("sim.run_calls", n "run", "count");
    ("sim.run_busy_ms", ms "run", "ms");
    ("sim.cycles", n "cycles", "count");
    ("sim.cycles_per_s", Measure.ratio (n "cycles") (ms "run" /. 1000.), "1/s");
    ("sim.verify_busy_ms", ms "verify", "ms");
    ("sim.ckpt_encode_ms", ms "ckpt_encode", "ms");
    ("sim.ckpt_decode_ms", ms "ckpt_decode", "ms");
    ("sim.fresh_iterations", n "fresh_iters", "count");
    ("sim.resumed_iterations", n "resumed_iters", "count");
    ("explore.key_busy_ms", ms "key", "ms");
    ("explore.pruned", extra "explore.pruned", "count");
    ("explore.frontier_busy_ms", ms "frontier", "ms");
    ("explore.search.rungs", extra "explore.search.rungs", "count");
    ("explore.search.iter_ratio", extra "explore.search.iter_ratio", "ratio");
    ("store.find_calls", n "find", "count");
    ("store.find_busy_ms", ms "find" -. ms "remote", "ms");
    ("store.hit_ratio", Measure.ratio (n "hits") (n "find"), "ratio");
    ("store.store_calls", n "store", "count");
    ("store.store_busy_ms", ms "store", "ms");
    ("store.ckpt_find_ms", ms "ckpt_find", "ms");
    ("store.ckpt_store_ms", ms "ckpt_store", "ms");
    ("store.bytes_written", n "bytes", "bytes");
    ("store.failures", extra "store.failures", "count");
    ("remote.requests", n "remote", "count");
    ("remote.busy_ms", ms "remote", "ms");
    ("remote.request_p50_ms", extra "remote.request_p50_ms", "ms");
    ("remote.fills", extra "remote.fills", "count");
    ("remote.errors", extra "remote.errors", "count");
    ("remote.retries", extra "remote.retries", "count");
    ("remote.connections", extra "remote.connections", "count");
    ("exec.tasks", float tasks, "count");
    ("exec.overhead_ms", ms "exec", "ms");
    ("other.unattributed_ms", (1000. *. wall_s) -. attributed, "ms");
  ]
  |> List.map (fun (name, v, unit) ->
         match unit with
         | "ms" -> (name, v *. scale, unit)
         | "1/s" -> (name, v /. scale, unit)
         | _ -> (name, v, unit))

(* --- Output --------------------------------------------------------------- *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* Every metric as a "name = value unit" line, then [notes] (raw
   timings and the failure fraction, for readers), then the JSON
   result with [metrics] only. *)
let report ~attempted ~failed ~notes metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s = %s %s\n" name (number v) unit)
    (metrics @ notes);
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric metrics))

let main setup =
  last_calibration := Measure.calibrate ();
  let setups_raw = ref [] and setups_scaled = ref [] and oracles = ref [] in
  let instance = ref None in
  for _ = 1 to setups do
    Option.iter (fun i -> i.teardown ()) !instance;
    instance := None;
    let t0 = Measure.now () in
    let i = setup ~seed:!seed in
    let dt = Measure.now () -. t0 in
    instance := Some i;
    setups_raw := dt :: !setups_raw;
    setups_scaled := (dt *. recalibrate ()) :: !setups_scaled;
    oracles := i.oracle :: !oracles
  done;
  let inst = Option.get !instance in
  Fun.protect ~finally:inst.teardown @@ fun () ->
  let setup_ok = List.for_all (( = ) inst.oracle) !oracles in
  if not setup_ok then prerr_endline "set-up oracles differ between set-ups";
  let start = Measure.now () in
  let more index =
    index < (if !trace = 0 then 1 else 2)
    || (Measure.now () -. start < !seconds
       && Measure.now () -. process_start < deadline_s)
  in
  let untraced = ref [] and traced = ref [] in
  let rec loop index =
    if more index then begin
      let op = inst.next_op () in
      (if !trace = 0 || index mod 2 = 0 then
         untraced := measure index op op.run :: !untraced
       else begin
         let l = Measure.layers () in
         let tasks0 = pool_tasks () in
         let s = measure index op (fun () -> op.replay l) in
         let layers =
           if s.failed then []
           else
             layer_metrics l ~wall_s:s.wall_s ~scale:s.scale
               ~tasks:(pool_tasks () - tasks0) ~extras:(op.extras ())
         in
         traced := (s, layers) :: !traced
       end);
      op.close ();
      loop (index + 1)
    end
  in
  loop 0;
  let samples = !untraced @ List.map fst !traced in
  let attempted = List.length samples in
  let failed =
    List.length (List.filter (fun s -> s.failed) samples)
    + if setup_ok then 0 else 1
  in
  let p50 f ss = Measure.median (List.map f ss) in
  let scaled f s = f s *. s.scale in
  let op_p50 = p50 (scaled (fun s -> s.wall_s)) !untraced in
  let notes =
    [
      ("raw.setup_s", Measure.median !setups_raw, "s");
      ("raw.op_p50_s", p50 (fun s -> s.wall_s) !untraced, "s");
      ("raw.op_cpu_p50_s", p50 (fun s -> s.cpu_s) !untraced, "s");
      ("host.scale_p50", p50 (fun s -> s.scale) samples, "ratio");
      ("failed_frac", Measure.ratio (float failed) (float attempted), "ratio");
    ]
  in
  let metrics =
    if !trace = 0 then
      [
        ("setup_s", Measure.median !setups_scaled, "s");
        ("op_p50_s", op_p50, "s");
        ("cells_per_s", Measure.ratio (float inst.cells) op_p50, "1/s");
        ("op_cpu_p50_s", p50 (scaled (fun s -> s.cpu_s)) !untraced, "s");
        ("max_rss_mb", max_rss_mb (), "MB");
      ]
    else
      let replays = List.filter (fun (s, _) -> not s.failed) !traced in
      let per_layer =
        match replays with
        | [] -> []
        | (_, first) :: _ ->
            List.mapi
              (fun i (name, _, unit) ->
                let value (_, ls) = let _, v, _ = List.nth ls i in v in
                (name, Measure.median (List.map value replays), unit))
              first
      in
      let replay_p50 = p50 (fun (s, _) -> s.wall_s *. s.scale) replays in
      let walls = List.map (scaled (fun s -> s.wall_s)) !untraced in
      per_layer
      @ [
          ( "trace.overhead_pct",
            100. *. (Measure.ratio replay_p50 op_p50 -. 1.),
            "%" );
          ("op.tail_s", Measure.tail walls, "s");
          ("op.samples", float (List.length walls), "count");
        ]
  in
  report ~attempted ~failed ~notes metrics;
  if failed > 0 then 1 else 0

let () =
  let code =
    match List.assoc_opt !workload_name workloads with
    | None ->
        Printf.eprintf "unknown workload %S\n" !workload_name;
        2
    | Some _
      when !work_dir = "" || !seconds <= 0. || (!trace <> 0 && !trace <> 1) ->
        prerr_endline "need --work-dir, --seconds > 0 and --trace 0|1";
        2
    | Some setup -> (
        Fun.protect
          ~finally:(fun () ->
            Mclock_exec.Pool.shutdown pool;
            if Lazy.is_val scratch then rm_rf (Lazy.force scratch))
        @@ fun () ->
        try main setup
        with e ->
          Printf.eprintf "benchmark set-up failed: %s\n" (Printexc.to_string e);
          2)
  in
  exit code
