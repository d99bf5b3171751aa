(* The traced replay: each benchmark operation re-run through the
   layers' public functions, with every call into a layer timed by
   {!Measure.time} from here.

   A replay follows the entry point it mirrors step for step —
   [Engine.explore], [Halving.run] (resume on, racing off) and
   [Report.evaluate_batch] — and returns the same result record, so
   the caller can demand byte-identical documents.  A replay that
   drifts from its entry point therefore fails loudly instead of
   measuring something else.

   Layer names used with {!Measure}:
   sched, synth, static, key, find, hits, ckpt_find, store, ckpt_store,
   bytes, compile, run, cycles, fresh_iters, resumed_iters, verify,
   ckpt_encode, ckpt_decode, exec, frontier, remote. *)

open Mclock_explore
module Compiled = Mclock_sim.Compiled
module Design = Mclock_rtl.Design
module Datapath = Mclock_rtl.Datapath

(* Engine defaults: the benchmark never overrides them. *)
let tech = Mclock_tech.Cmos08.t
let width = 4

type ctx = {
  name : string;
  graph : Mclock_dfg.Graph.t;
  sched_constraints : Mclock_sched.List_sched.constraints;
  seed : int;
  iterations : int;
  max_clocks : int;
}

(* Engine.prepare: one schedule per scheduler, then synthesize, bound
   and estimate every cell. *)
let prepare l c =
  let schedules = Hashtbl.create 4 in
  let schedule_for (config : Config.t) =
    match Hashtbl.find_opt schedules config.Config.scheduler with
    | Some s -> s
    | None ->
        let s =
          Measure.time l "sched" (fun () ->
              Config.schedule config ~constraints:c.sched_constraints c.graph)
        in
        Hashtbl.add schedules config.Config.scheduler s;
        s
  in
  let cells =
    List.mapi
      (fun i config ->
        let schedule = schedule_for config in
        let design =
          Measure.time l "synth" (fun () ->
              Config.synthesize ~tech ~width config ~name:("x_" ^ c.name)
                schedule)
        in
        let bounds, est, _ =
          Measure.time l "static" (fun () ->
              Metrics.bounds_and_estimate_of_design ~config
                ~iterations:c.iterations tech design)
        in
        {
          Engine.p_index = i;
          p_config = config;
          p_label = Config.label config;
          p_design = design;
          p_bounds = bounds;
          p_est_power_mw = est;
        })
      (Config.enumerate ~max_clocks:c.max_clocks)
  in
  {
    Engine.sp_graph = c.graph;
    sp_width = width;
    sp_tech = tech;
    sp_name = c.name;
    sp_sched_constraints = c.sched_constraints;
    sp_cells = cells;
  }

(* Report.of_sim: golden verification plus the paper's columns.
   [simulated] is the number of computations this call actually ran
   (less than [iterations] when extending a checkpoint). *)
let report l ~label design graph ~iterations ~simulated
    (sim : Mclock_sim.Simulator.result) =
  let datapath = Design.datapath design in
  let verify =
    Measure.time l "verify" (fun () ->
        Mclock_sim.Verify.check ~width:(Datapath.width datapath) graph sim)
  in
  Measure.count l "cycles" (sim.cycles / iterations * simulated);
  Measure.count l "fresh_iters" simulated;
  Measure.count l "resumed_iters" (iterations - simulated);
  {
    Mclock_power.Report.label;
    design_name = Design.name design;
    power_mw = sim.power_mw;
    energy_per_computation_pj = sim.energy_pj /. float iterations;
    area = Mclock_power.Area.of_design tech design;
    alus = Datapath.alu_inventory_string datapath;
    memory_cells = Datapath.memory_cells datapath;
    mux_inputs = Datapath.mux_input_count datapath;
    energy_by_category = Mclock_sim.Activity.by_category sim.activity;
    iterations;
    functional_ok = Mclock_sim.Verify.ok verify;
  }

let metrics_of (p : Engine.prepared) r =
  Metrics.of_report ~config:p.Engine.p_config ~tech
    ~latency_steps:(Design.num_steps p.Engine.p_design)
    r

(* Pool.map with the pool's own cost (wall outside the tasks) charged
   to the exec layer. *)
let pool_map l pool ~label f items =
  let inside = ref 0. in
  let t0 = Measure.now () in
  let out =
    Mclock_exec.Pool.map pool ~label
      (fun _ x ->
        let t = Measure.now () in
        let y = f x in
        inside := !inside +. (Measure.now () -. t);
        y)
      items
  in
  Measure.charge l "exec" ~calls:(List.length items)
    (Measure.now () -. t0 -. !inside);
  out

let find l store ~key =
  let r = Measure.time l "find" (fun () -> Store.find store ~key) in
  if r <> None then Measure.count l "hits" 1;
  r

let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let store_entry l store ~key m =
  Measure.time l "store" (fun () -> Store.store store ~key m);
  Measure.count l "bytes" (file_size (Store.entry_path store ~key))

(* The remote tier as the store sees it, with every fetch timed here.
   The fetch runs inside [Store.find], so callers subtract "remote"
   from "find" to get the store's own time. *)
let timed_tier l ~request_ms (tier : Store.remote) =
  {
    tier with
    Store.r_fetch =
      (fun kind ~key ->
        let t0 = Measure.now () in
        let r = tier.Store.r_fetch kind ~key in
        let dt = Measure.now () -. t0 in
        Measure.charge l "remote" ~calls:1 dt;
        request_ms := (1000. *. dt) :: !request_ms;
        r);
  }

let failures store = (Store.stats store).Store.store_failures

(* --- Engine.explore (no constraints, no estimate-first) ---------------- *)

let explore l ~pool ~store c =
  let failures_before = failures store in
  let space = prepare l c in
  let pre =
    List.map
      (fun (p : Engine.prepared) ->
        let key =
          Measure.time l "key" (fun () ->
              Engine.cell_key space ~seed:c.seed ~iterations:c.iterations p)
        in
        match Metrics.violated ~constraints:[] p.Engine.p_bounds with
        | _ :: _ as v -> (p, key, `Pruned v)
        | [] -> (
            match find l store ~key with
            | Some m -> (p, key, `Hit m)
            | None -> (p, key, `Miss)))
      space.Engine.sp_cells
  in
  let misses =
    List.filter_map (function p, key, `Miss -> Some (p, key) | _ -> None) pre
  in
  let misses_arr = Array.of_list misses in
  let fresh =
    pool_map l pool
      ~label:(fun i ->
        let p, _ = misses_arr.(i) in
        Printf.sprintf "%s/%s" c.name p.Engine.p_label)
      (fun ((p : Engine.prepared), _) ->
        let kernel =
          Measure.time l "compile" (fun () ->
              Compiled.compile tech p.Engine.p_design)
        in
        let sim =
          Measure.time l "run" (fun () ->
              Compiled.run ~seed:c.seed kernel ~iterations:c.iterations)
        in
        metrics_of p
          (report l ~label:p.Engine.p_label p.Engine.p_design c.graph
             ~iterations:c.iterations ~simulated:c.iterations sim))
      misses
  in
  List.iter2 (fun (_, key) m -> store_entry l store ~key m) misses fresh;
  let fresh_q = ref fresh in
  let cells =
    List.map
      (fun ((p : Engine.prepared), key, tag) ->
        let status =
          match tag with
          | `Pruned v -> Engine.Pruned v
          | `Hit m -> Engine.Cached m
          | `Miss -> (
              match !fresh_q with
              | m :: rest ->
                  fresh_q := rest;
                  Engine.Simulated m
              | [] -> assert false)
        in
        {
          Engine.config = p.Engine.p_config;
          cell_label = p.Engine.p_label;
          key;
          bounds = p.Engine.p_bounds;
          status;
        })
      pre
  in
  let points =
    List.mapi (fun i c -> (i, c)) cells
    |> List.filter_map (fun (i, (c : Engine.cell)) ->
           match c.Engine.status with
           | (Engine.Cached m | Engine.Simulated m) when m.Metrics.functional_ok
             ->
               Some
                 { Pareto.index = i; label = c.Engine.cell_label; metrics = m }
           | _ -> None)
  in
  let pareto = Measure.time l "frontier" (fun () -> Pareto.frontier points) in
  let count f = List.length (List.filter f cells) in
  let n_misses = List.length misses in
  let result =
    {
      Engine.workload = c.name;
      max_clocks = c.max_clocks;
      seed = c.seed;
      iterations = c.iterations;
      constraints = [];
      cells;
      pareto;
      stats =
        {
          Engine.enumerated = List.length space.Engine.sp_cells;
          pruned =
            count (fun c ->
                match c.Engine.status with
                | Engine.Pruned _ -> true
                | _ -> false);
          cache_hits =
            count (fun c ->
                match c.Engine.status with
                | Engine.Cached _ -> true
                | _ -> false);
          cache_misses = n_misses;
          simulated = n_misses;
          skipped = 0;
          store_failures = failures store - failures_before;
        };
    }
  in
  (space, result)

(* --- Halving.run (eta 2, resume on, racing off, threshold 0) ---------- *)

(* Engine.evaluate_at with checkpoints: find, else extend the highest
   cached lower-fidelity checkpoint, else simulate fresh; write back
   the entry and its sidecar.  Returns the metrics in input order and
   the rung's counters. *)
let evaluate_at l ~pool ~store ~ladder c space ~budget cells =
  let ladder =
    List.sort_uniq (fun a b -> compare b a) ladder
    |> List.filter (fun k -> k > 0 && k < budget)
  in
  let key_at ~iterations p =
    Measure.time l "key" (fun () ->
        Engine.cell_key space ~seed:c.seed ~iterations p)
  in
  let looked =
    List.map
      (fun p ->
        let key = key_at ~iterations:budget p in
        let hit = find l store ~key in
        let blob =
          match hit with
          | Some _ -> None
          | None ->
              List.find_map
                (fun k ->
                  let k_key = key_at ~iterations:k p in
                  Measure.time l "ckpt_find" (fun () ->
                      Store.find_checkpoint store ~key:k_key))
                ladder
        in
        (p, key, hit, blob))
      cells
  in
  let misses =
    List.filter_map
      (function p, key, None, blob -> Some (p, key, blob) | _ -> None)
      looked
  in
  let misses_arr = Array.of_list misses in
  let fresh =
    pool_map l pool
      ~label:(fun i ->
        let (p : Engine.prepared), _, _ = misses_arr.(i) in
        Printf.sprintf "%s/%s@%d" c.name p.Engine.p_label budget)
      (fun ((p : Engine.prepared), _, blob) ->
        let kernel =
          Measure.time l "compile" (fun () ->
              Compiled.compile tech p.Engine.p_design)
        in
        let fresh_run () =
          Measure.time l "run" (fun () ->
              Compiled.run_with_checkpoint ~seed:c.seed kernel
                ~iterations:budget)
        in
        let decoded =
          Option.map
            (fun b ->
              Measure.time l "ckpt_decode" (fun () ->
                  Compiled.Checkpoint.decode b))
            blob
        in
        let (sim, ck), resumed_from =
          match decoded with
          | Some (Ok ck) -> (
              match
                Measure.time l "run" (fun () ->
                    Compiled.resume kernel ck ~iterations:budget)
              with
              | r -> (r, Some (Compiled.checkpoint_iterations ck))
              | exception Invalid_argument _ -> (fresh_run (), None))
          | Some (Error _) | None -> (fresh_run (), None)
        in
        let simulated = budget - Option.value resumed_from ~default:0 in
        let m =
          metrics_of p
            (report l ~label:p.Engine.p_label p.Engine.p_design c.graph
               ~iterations:budget ~simulated sim)
        in
        let encoded =
          Measure.time l "ckpt_encode" (fun () -> Compiled.Checkpoint.encode ck)
        in
        (m, encoded, resumed_from))
      misses
  in
  List.iter2
    (fun (_, key, _) (m, blob, _) ->
      store_entry l store ~key m;
      Measure.time l "ckpt_store" (fun () ->
          Store.store_checkpoint store ~key blob);
      Measure.count l "bytes" (file_size (Store.checkpoint_path store ~key)))
    misses fresh;
  let fresh_q = ref fresh in
  let metrics =
    List.map
      (fun (_, _, hit, _) ->
        match hit with
        | Some m -> m
        | None -> (
            match !fresh_q with
            | (m, _, _) :: rest ->
                fresh_q := rest;
                m
            | [] -> assert false))
      looked
  in
  let resumed = List.filter_map (fun (_, _, r) -> r) fresh in
  let resumed_iters = List.fold_left ( + ) 0 resumed in
  let n = List.length misses in
  ( metrics,
    {
      Engine.rs_cache_hits = List.length cells - n;
      rs_simulated = n;
      rs_resumed = List.length resumed;
      rs_resumed_iterations = resumed_iters;
      rs_fresh_iterations = (n * budget) - resumed_iters;
      rs_checkpoints_written = n;
    } )

let score_rung objective survivors metrics =
  let pairs = List.combine survivors metrics in
  let functional = List.filter (fun (_, m) -> m.Metrics.functional_ok) pairs in
  let scores = Objective.scores objective (List.map snd functional) in
  let tbl = Hashtbl.create 16 in
  List.iter2
    (fun ((p : Engine.prepared), _) s -> Hashtbl.replace tbl p.Engine.p_index s)
    functional scores;
  List.map
    (fun ((p : Engine.prepared), m) ->
      {
        Halving.c_index = p.Engine.p_index;
        c_label = p.Engine.p_label;
        c_config = p.Engine.p_config;
        c_metrics = m;
        c_score =
          Option.value ~default:infinity
            (Hashtbl.find_opt tbl p.Engine.p_index);
        c_raced_at = None;
      })
    pairs

let rank =
  List.stable_sort (fun (a : Halving.candidate) (b : Halving.candidate) ->
      match Float.compare a.Halving.c_score b.Halving.c_score with
      | 0 -> Stdlib.compare a.Halving.c_index b.Halving.c_index
      | cmp -> cmp)

let search l ~pool ~store c =
  let eta = 2 and objective = Objective.default in
  let min_iterations = max 1 (c.iterations / 16) in
  let failures_before = failures store in
  let space = prepare l c in
  let seed_pool =
    List.stable_sort
      (fun (a : Engine.prepared) (b : Engine.prepared) ->
        match Float.compare a.Engine.p_est_power_mw b.Engine.p_est_power_mw with
        | 0 -> Stdlib.compare a.Engine.p_index b.Engine.p_index
        | cmp -> cmp)
      (List.filter
         (fun (p : Engine.prepared) ->
           Metrics.admissible ~constraints:[] p.Engine.p_bounds)
         space.Engine.sp_cells)
  in
  let totals = ref [] and eval_iters = ref 0 and past = ref [] in
  let rec loop rung_no prev budget survivors acc =
    let n = List.length survivors in
    let metrics, rs =
      evaluate_at l ~pool ~store ~ladder:!past c space ~budget survivors
    in
    totals := rs :: !totals;
    past := budget :: !past;
    eval_iters := !eval_iters + (n * (budget - prev));
    let candidates = score_rung objective survivors metrics in
    let ranked =
      List.filter (fun c -> c.Halving.c_score < infinity) (rank candidates)
    in
    let rung kept =
      {
        Halving.r_number = rung_no;
        r_iterations = budget;
        r_candidates = candidates;
        r_kept = List.map (fun c -> c.Halving.c_label) kept;
      }
    in
    if budget >= c.iterations then
      let winner = match ranked with [] -> None | w :: _ -> Some w in
      (List.rev (rung (Option.to_list winner) :: acc), winner)
    else
      let kept_n =
        Halving.keep_width ~eta ~close_threshold:0. ~field:n
          (List.map (fun c -> c.Halving.c_score) ranked)
      in
      let kept = List.filteri (fun i _ -> i < kept_n) ranked in
      match kept with
      | [] -> (List.rev (rung kept :: acc), None)
      | _ ->
          let next_budget =
            if List.length kept <= 1 then c.iterations
            else min c.iterations (budget * eta)
          in
          let next =
            List.map
              (fun k ->
                List.find
                  (fun (p : Engine.prepared) ->
                    p.Engine.p_index = k.Halving.c_index)
                  survivors)
              kept
          in
          loop (rung_no + 1) budget next_budget next (rung kept :: acc)
  in
  let rungs, winner =
    match seed_pool with
    | [] -> ([], None)
    | _ -> loop 0 0 (min c.iterations min_iterations) seed_pool []
  in
  let sum f = List.fold_left (fun acc rs -> acc + f rs) 0 !totals in
  let result =
    {
      Halving.workload = c.name;
      max_clocks = c.max_clocks;
      seed = c.seed;
      eta;
      min_iterations;
      iterations = c.iterations;
      objective;
      constraints = [];
      resume = true;
      race = false;
      race_margin = 0.25;
      close_threshold = 0.;
      degenerate = None;
      enumerated = List.length space.Engine.sp_cells;
      pruned = List.length space.Engine.sp_cells - List.length seed_pool;
      rungs;
      winner;
      evaluation_iterations = !eval_iters;
      exhaustive_iterations = List.length seed_pool * c.iterations;
      stats =
        {
          Halving.cache_hits = sum (fun rs -> rs.Engine.rs_cache_hits);
          simulated = sum (fun rs -> rs.Engine.rs_simulated);
          simulated_iterations = sum (fun rs -> rs.Engine.rs_fresh_iterations);
          store_failures = failures store - failures_before;
          resumed = sum (fun rs -> rs.Engine.rs_resumed);
          resumed_iterations = sum (fun rs -> rs.Engine.rs_resumed_iterations);
          checkpoints_written =
            sum (fun rs -> rs.Engine.rs_checkpoints_written);
          raced_out = 0;
        };
    }
  in
  (space, result)

(* --- Report.evaluate_batch (compiled kernel) --------------------------- *)

let tables l ~pool ~seed ~iterations cells =
  let cells_arr = Array.of_list cells in
  pool_map l pool
    ~label:(fun i ->
      let label, design, _ = cells_arr.(i) in
      Printf.sprintf "%s/%s" (Design.name design) label)
    (fun (label, design, graph) ->
      let kernel =
        Measure.time l "compile" (fun () -> Compiled.compile tech design)
      in
      let sim =
        Measure.time l "run" (fun () -> Compiled.run ~seed kernel ~iterations)
      in
      report l ~label design graph ~iterations ~simulated:iterations sim)
    cells
