(* Benchmark worker.  run.py spawns it; it drives the toolchain only
   through the layers' public entry points and prints raw measurements as
   one JSON line, which run.py aggregates into the reported metrics.

     worker.exe ready  --workload W --seed S
         set up a batch workload and exit (set-up timing)
     worker.exe batch  --workload W --seed S --seconds T --trace 0|1
         compile + verify every cell of W, pass after pass, for T seconds
     worker.exe serve  --socket P --seed S
         replay the seeded serve trace against a running daemon
     worker.exe record --out FILE
         write the expected verdict facts of every cell *)

module Ir = Overify_ir.Ir
module Frontend = Overify_minic.Frontend
module Costmodel = Overify_opt.Costmodel
module Pipeline = Overify_opt.Pipeline
module Engine = Overify_symex.Engine
module Interp = Overify_interp.Interp
module Vclib = Overify_vclib.Vclib
module Programs = Overify_corpus.Programs
module Workload = Overify_corpus.Workload
module Obs = Overify_obs.Obs
module Client = Overify_serve.Client
module Protocol = Overify_serve.Protocol
module Json = Overify_serve.Json

let now = Unix.gettimeofday
let expected_file = "perfbench/expected.json"

(* ---------------- cells ---------------- *)

type cell = { prog : Programs.t; level : Costmodel.t; n : int }

let key c = Printf.sprintf "%s/%s/n%d" c.prog.Programs.name c.level.Costmodel.name c.n

let program name =
  match Programs.find name with
  | Some p -> p
  | None -> failwith ("corpus has no program " ^ name)

(* factor and cksum are the solver-bound outliers: measured on their own
   (sat-outliers) so they do not swamp the sweep.  cksum -O0 is left out
   because it cannot finish at n=2 and takes 32 s at n=1.  Both run at n=1,
   where a pass takes about 5 s, so that a run holds several passes and
   the per-cell medians shrug off a stalled host. *)
let outliers = [ "factor"; "cksum" ]

let sweep_programs =
  List.filter (fun (p : Programs.t) -> not (List.mem p.Programs.name outliers)) Programs.programs

let sweep_levels = Costmodel.[ o0; o3; overify ]

let full_cells = function
  | "sat-outliers" ->
      List.map (fun level -> { prog = program "factor"; level; n = 1 }) sweep_levels
      @ List.map (fun level -> { prog = program "cksum"; level; n = 1 }) Costmodel.[ o3; overify ]
  | "corpus-sweep" ->
      List.concat_map
        (fun prog -> List.map (fun level -> { prog; level; n = 2 }) sweep_levels)
        sweep_programs
  | w -> failwith ("unknown batch workload " ^ w)

(* --mini: a few cheap cells of each workload, for the benchmark's
   self-test *)
let mini = Array.mem "--mini" Sys.argv

let cells w =
  let cs = full_cells w in
  if not mini then cs
  else
    match w with
    | "sat-outliers" -> List.filter (fun c -> c.prog.Programs.name = "cksum") cs
    | _ -> List.filteri (fun i _ -> i < 9) cs

(* ---------------- settings the environment could change ---------------- *)

(* Every knob an OVERIFY_* variable would otherwise set is fixed here (the
   daemon gets the same values through flags and run.py's environment).
   OVERIFY_PASS_TIMES is read once at start-up, so run.py unsets it. *)
let pin_settings () =
  Pipeline.paranoid := false;
  Obs.set_enabled false;
  if Sys.getenv_opt "OVERIFY_PASS_TIMES" <> None then
    failwith "OVERIFY_PASS_TIMES must be unset"

let engine_config ?span n =
  {
    Engine.default_config with
    Engine.input_size = n;
    max_paths = 1_000_000;
    max_insts = 200_000_000;
    timeout = 150.0;
    check_bounds = true;
    searcher = `Dfs;
    profile = false;
    summaries = false;
    solver_cache = Some true;
    cache_dir = None;
    store = None;
    faults = None;
    checkpoint_dir = None;
    resume = false;
    span;
    cancel = None;
  }

let settings_json =
  "{\"OVERIFY_SOLVER_CACHE\": \"1\", \"OVERIFY_SUMMARIES\": \"0\", \
   \"OVERIFY_PARANOID\": \"0\", \"OVERIFY_PASS_TIMES\": \"unset\", \
   \"OVERIFY_OBS\": \"0\", \"OVERIFY_FAULTS\": \"unset\", \
   \"OVERIFY_LOG\": \"warn\", \"searcher\": \"dfs\", \"timeout_s\": 150}"

(* ---------------- JSON output ---------------- *)

let num f = Printf.sprintf "%.17g" f
let str s = "\"" ^ Json.escape s ^ "\""
let obj kvs = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) kvs) ^ "}"
let arr l = "[" ^ String.concat ", " l ^ "]"

(* ---------------- expected verdict facts ---------------- *)

type facts = {
  paths : int;
  exit_codes : int list;  (** distinct exit codes, sorted *)
  bugs : string list;     (** "kind@function", sorted *)
  blocks : int;
  size : int;             (** static IR instructions after optimization *)
  cycles : int;           (** Interp cycles over {!reference_inputs} *)
}

let facts_json f =
  obj
    [
      ("paths", string_of_int f.paths);
      ("exit_codes", arr (List.map string_of_int f.exit_codes));
      ("bugs", arr (List.map str f.bugs));
      ("blocks", string_of_int f.blocks);
      ("size", string_of_int f.size);
      ("cycles", string_of_int f.cycles);
    ]

let load_expected () : (string, facts) Hashtbl.t =
  let ic = open_in_bin expected_file in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc =
    match Json.parse text with
    | Ok (Json.Obj kvs) -> kvs
    | _ -> failwith (expected_file ^ ": not a JSON object")
  in
  let tbl = Hashtbl.create 512 in
  let int_of j k = Option.get (Option.bind (Json.mem j k) Json.int_) in
  let list_of j k f =
    match Json.mem j k with
    | Some (Json.Arr l) -> List.map (fun x -> Option.get (f x)) l
    | _ -> failwith (expected_file ^ ": bad " ^ k)
  in
  List.iter
    (fun (k, j) ->
      Hashtbl.replace tbl k
        {
          paths = int_of j "paths";
          exit_codes = list_of j "exit_codes" Json.int_;
          bugs = list_of j "bugs" Json.str;
          blocks = int_of j "blocks";
          size = int_of j "size";
          cycles = int_of j "cycles";
        })
    doc;
  tbl

(* fixed inputs, independent of the seed, for the expected-cycles check *)
let reference_inputs = Workload.batch ~seed:42 ~size:14 ~count:8

let code_size (m : Ir.modul) =
  List.fold_left (fun acc f -> acc + Ir.func_size f) 0 m.Ir.funcs

let verdict_facts ?(cycles = true) (m : Ir.modul) (r : Engine.result) =
  {
    paths = r.Engine.paths;
    exit_codes =
      List.sort_uniq compare
        (List.map (fun (_, c) -> Int64.to_int c) r.Engine.exit_codes);
    bugs =
      List.sort_uniq compare
        (List.map
           (fun (b : Engine.bug) -> b.Engine.kind ^ "@" ^ b.Engine.at_function)
           r.Engine.bugs);
    blocks = r.Engine.blocks_covered;
    size = code_size m;
    cycles =
      (if cycles then
         List.fold_left
           (fun acc input -> acc + (Interp.run m ~input).Interp.cycles)
           0 reference_inputs
       else 0);
  }

(* ---------------- one cell through the layers ---------------- *)

type measured = {
  cell : cell;
  minic_s : float;
  opt_s : float;
  verify_s : float;
  alloc_mb : float;  (** allocated by the three calls *)
  m0_size : int;
  opt_size : int;
  result : Engine.result;
  prof : Obs.Pass.t option;
}

(* The measured record, and the optimized module for the output checks. *)
let run_cell ?span ~profile_passes c =
  let a0 = Gc.allocated_bytes () in
  let t0 = now () in
  let m0 = Frontend.compile_sources [ Vclib.for_cost_model c.level; c.prog.Programs.source ] in
  let t1 = now () in
  let prof = if profile_passes then Some (Obs.Pass.create ()) else None in
  let o = Pipeline.optimize ?prof c.level m0 in
  let t2 = now () in
  let result = Engine.run ~config:(engine_config ?span c.n) o.Pipeline.modul in
  let t3 = now () in
  let a1 = Gc.allocated_bytes () in
  ( {
      cell = c;
      minic_s = t1 -. t0;
      opt_s = t2 -. t1;
      verify_s = t3 -. t2;
      alloc_mb = (a1 -. a0) /. 1e6;
      m0_size = code_size m0;
      opt_size = code_size o.Pipeline.modul;
      result;
      prof;
    },
    o.Pipeline.modul )

(* ---------------- output checks ---------------- *)

let errors = ref []
let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors; false) fmt

let check_verdict ~cycles expected (x : measured) m =
  let k = key x.cell in
  let r = x.result in
  if not r.Engine.complete then fail "%s: incomplete run" k
  else
    match Hashtbl.find_opt expected k with
    | None -> fail "%s: no expected facts" k
    | Some e ->
        let got = verdict_facts ~cycles m r in
        if got <> { e with cycles = got.cycles } then
          fail "%s: verdict facts %s, expected %s" k (facts_json got) (facts_json e)
        else if cycles && got.cycles <> e.cycles then
          fail "%s: reference run_cycles %d, expected %d" k got.cycles e.cycles
        else true

(* Interp shares no code with symex or the solver: every exit-code witness
   must reach its predicted exit code, every bug witness must trap. *)
let replay_witnesses (x : measured) m =
  let k = key x.cell in
  List.for_all
    (fun (input, code) ->
      let rr = Interp.run m ~input in
      rr.Interp.trap = None && rr.Interp.exit_code = code
      || fail "%s: witness %S predicted exit %Ld, concrete run gave %Ld%s" k input code
           rr.Interp.exit_code
           (match rr.Interp.trap with
           | Some t -> " (" ^ Interp.string_of_trap t ^ ")"
           | None -> ""))
    x.result.Engine.exit_codes
  && List.for_all
       (fun (b : Engine.bug) ->
         (Interp.run m ~input:b.Engine.input).Interp.trap <> None
         || fail "%s: %s witness %S does not trap" k b.Engine.kind b.Engine.input)
       x.result.Engine.bugs

(* A concrete run, and what of it every level must agree on: trapped,
   output, exit code. *)
let outcome m input =
  let r = Interp.run m ~input in
  (r, (r.Interp.trap <> None, r.Interp.output, if r.Interp.trap = None then r.Interp.exit_code else 0L))

(* The seeded concrete inputs of a program, each with the -O0 build's
   outcome on it, which every level must reproduce. *)
let concrete_oracle ~seed (p : Programs.t) =
  let reference =
    (Pipeline.optimize Costmodel.o0
       (Frontend.compile_sources [ Vclib.for_cost_model Costmodel.o0; p.Programs.source ]))
      .Pipeline.modul
  in
  List.map
    (fun input -> (input, snd (outcome reference input)))
    (Workload.batch ~seed:(seed + Hashtbl.hash p.Programs.name) ~size:14 ~count:8)

type concrete = { cycles : int; insts : int }

let run_concrete ~oracle (x : measured) m =
  let k = key x.cell in
  List.fold_left
    (fun (acc, ok) (input, want) ->
      let r, got = outcome m input in
      ( { cycles = acc.cycles + r.Interp.cycles; insts = acc.insts + r.Interp.insts },
        ok && (got = want || fail "%s: concrete run on %S differs from -O0" k input) ))
    ({ cycles = 0; insts = 0 }, true)
    oracle

(* ---------------- batch workloads ---------------- *)

(* The process's peak resident set so far (VmHWM), read after the first
   pass: later passes only grow the heap further, and their number depends
   on the host's speed. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

type pass = {
  wall_s : float;
  kernel_s : float list;  (** the reference kernel's times in this pass *)
  alloc_mb : float;
  measured : measured list;
  traced : (string * float) list;  (** per-layer metrics of a traced pass *)
}

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s -> List.nth s (List.length s / 2)

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let isum f l = List.fold_left (fun a x -> a + f x) 0 l

(* Durations of the config.span tree's spans called [name] (the engine
   also emits a plain "engine.run" trace event, which is not counted). *)
let span_durs name =
  List.filter_map
    (fun (e : Obs.Trace.event) ->
      if e.Obs.Trace.ev_cat = "span" && e.Obs.Trace.ev_name = name then Some e.Obs.Trace.ev_dur
      else None)
    (Obs.Trace.events ())

(* Per-layer metrics of one traced pass, from the layers' own collectors:
   Pipeline's ~prof rollup and the engine.run / solver.check spans. *)
let layer_metrics (ms : (measured * float list * float) list) =
  let xs = List.map (fun (x, _, _) -> x) ms in
  let res f = isum (fun x -> f x.result) xs in
  let fres f = float_of_int (res f) in
  let rollups =
    List.concat_map (fun x -> Obs.Pass.rollup (Option.get x.prof)) xs
  in
  let passes = List.sort_uniq compare (List.map (fun r -> r.Obs.Pass.pr_pass) rollups) in
  let per_pass =
    List.concat_map
      (fun p ->
        let rs = List.filter (fun r -> r.Obs.Pass.pr_pass = p) rollups in
        [
          ("opt." ^ p ^ ".ms", 1000.0 *. sum (fun r -> r.Obs.Pass.pr_time) rs);
          ("opt." ^ p ^ ".apps", float_of_int (isum (fun r -> r.Obs.Pass.pr_apps) rs));
          ("opt." ^ p ^ ".changed", float_of_int (isum (fun r -> r.Obs.Pass.pr_changed) rs));
        ])
      passes
  in
  let symex_ms = 1000.0 *. sum (fun (_, _, d) -> d) ms in
  let solves = List.concat_map (fun (_, s, _) -> s) ms in
  let blast_sat_ms = 1000.0 *. sum (fun x -> x.result.Engine.solver_time) xs in
  let queries = fres (fun r -> r.Engine.queries) in
  [
    ("minic.ms", 1000.0 *. sum (fun x -> x.minic_s) xs);
    ("minic.ir_insts", float_of_int (isum (fun x -> x.m0_size) xs));
    ("opt.ms", 1000.0 *. sum (fun x -> x.opt_s) xs);
    ("opt.ir_insts", float_of_int (isum (fun x -> x.opt_size) xs));
    ("opt.apps", float_of_int (isum (fun r -> r.Obs.Pass.pr_apps) rollups));
    ("opt.changed", float_of_int (isum (fun r -> r.Obs.Pass.pr_changed) rollups));
  ]
  @ per_pass
  @ [
      ("symex.ms", symex_ms);
      ("symex.other_ms", symex_ms -. blast_sat_ms);
      ("symex.paths", fres (fun r -> r.Engine.paths));
      ("symex.instructions", fres (fun r -> r.Engine.instructions));
      ("symex.forks", fres (fun r -> r.Engine.forks));
      ("symex.insts_per_s", fres (fun r -> r.Engine.instructions) /. (symex_ms /. 1000.0));
      ("solver.queries", queries);
      ("solver.cache_hits", fres (fun r -> r.Engine.cache_hits));
      ("solver.hit_ratio", if queries > 0.0 then fres (fun r -> r.Engine.cache_hits) /. queries else 0.0);
      ("solver.components", fres (fun r -> r.Engine.components));
      ("solver.solves", fres (fun r -> r.Engine.component_solves));
      ("solver.hits_exact", fres (fun r -> r.Engine.hits_exact));
      ("solver.hits_canon", fres (fun r -> r.Engine.hits_canon));
      ("solver.hits_subset", fres (fun r -> r.Engine.hits_subset));
      ("solver.hits_store", fres (fun r -> r.Engine.hits_store));
      ("solver.blast_sat_ms", blast_sat_ms);
      ("solver.solve_p50_ms", 1000.0 *. median solves);
      ("solver.solve_max_ms", 1000.0 *. List.fold_left max 0.0 solves);
      ("summary.computed", fres (fun r -> r.Engine.summary_computed));
      ("summary.cached", fres (fun r -> r.Engine.summary_cached));
      ("summary.instantiated", fres (fun r -> r.Engine.summary_instantiated));
      ("summary.opaque", fres (fun r -> r.Engine.summary_opaque));
    ]

(* ---------------- reference kernel ---------------- *)

(* A fixed piece of OCaml work that calls no code of the toolchain: hash
   table inserts, balanced-map inserts, a list sort and their traversal,
   about 20 ms on a 2-core VM.  It runs in the same process and thread as
   the cells, between them, so it sees the speed the host gives the cells
   at that moment; run.py divides the cells' times by it. *)
module Int_map = Map.Make (Int)

let reference_kernel () =
  let t0 = now () in
  let n = 20_000 in
  (* sized up front: a table that grows makes the toolchain's own
     allocation in the next cell vary from one process to the next *)
  let h = Hashtbl.create n in
  for i = 0 to n - 1 do
    Hashtbl.replace h ((i * 7919) land 0xfffff) (string_of_int i)
  done;
  let m = ref Int_map.empty in
  for i = 0 to n - 1 do
    m := Int_map.add ((i * 104_729) land 0xffffff) i !m
  done;
  let l = List.sort compare (List.init n (fun i -> (i * 65_537) land 0xffff)) in
  let acc = ref (List.length l) in
  Int_map.iter (fun k v -> acc := !acc + k + v) !m;
  Hashtbl.iter (fun k v -> acc := !acc + k + String.length v) h;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

(* The kernel runs before every [kernel_every]-th cell: before each of
   sat-outliers' 5 cells, 9 times in a corpus-sweep pass. *)
let kernel_every cs = max 1 (List.length cs / 8)

(* One pass over the cells; [inspect] runs the output checks on each cell
   after its timed calls, and the module is dropped before the next one. *)
let run_pass ~traced ~inspect cs =
  Gc.full_major ();
  let every = kernel_every cs in
  let kernels = ref [] in
  let ms =
    List.mapi
      (fun i c ->
        if i mod every = 0 then kernels := reference_kernel () :: !kernels;
        let x, m, solves, engine =
          if traced then begin
            Obs.Trace.clear ();
            let root = Obs.Span.start "bench.cell" in
            let x, m = run_cell ~span:root ~profile_passes:true c in
            Obs.Span.finish root;
            (x, m, span_durs "solver.check", sum Fun.id (span_durs "engine.run"))
          end
          else
            let x, m = run_cell ~profile_passes:false c in
            (x, m, [], 0.0)
        in
        inspect x m;
        (x, solves, engine))
      cs
  in
  let xs = List.map (fun (x, _, _) -> x) ms in
  {
    wall_s = sum (fun x -> x.minic_s +. x.opt_s +. x.verify_s) xs;
    kernel_s = List.rev !kernels;
    alloc_mb = sum (fun (x : measured) -> x.alloc_mb) xs;
    measured = xs;
    traced = (if traced then layer_metrics ms else []);
  }

(* Everything a batch run prepares before its first pass: the expected
   facts, and the concrete-run oracle of every program (its -O0 build run
   on the seeded inputs).  "ready" mode does exactly this, so that set-up
   can be timed on its own. *)
let batch_setup ~seed workload =
  let expected = load_expected () in
  let cs = cells workload in
  let oracles =
    List.map
      (fun p -> (p.Programs.name, concrete_oracle ~seed p))
      (List.sort_uniq compare (List.map (fun c -> c.prog) cs))
  in
  (expected, cs, oracles)

let batch ~workload ~seed ~seconds ~trace =
  let expected, cs, oracles = batch_setup ~seed workload in
  (* every pass: verdict facts; the first pass also checks the reference
     cycles, replays the witnesses and runs the seeded concrete inputs (all
     deterministic, so once is enough) *)
  let failed = ref 0 in
  let first = ref true in
  let cycles = ref 0 and insts = ref 0 in
  let first_pass_rss = ref 0.0 in
  let inspect x m =
    let ok = check_verdict ~cycles:!first expected x m in
    let ok =
      if not !first then ok
      else begin
        let ok_replay = replay_witnesses x m in
        let oracle = List.assoc x.cell.prog.Programs.name oracles in
        let conc, ok_conc = run_concrete ~oracle x m in
        cycles := !cycles + conc.cycles;
        insts := !insts + conc.insts;
        ok && ok_replay && ok_conc
      end
    in
    if not ok then incr failed
  in
  (* the process's first run of the kernel is slower (heap growth) *)
  ignore (reference_kernel ());
  let t_start = now () in
  (* passes until the time is up; a traced run spends the second half of
     its time on traced passes *)
  let untraced_until = if trace then t_start +. (seconds /. 2.0) else t_start +. seconds in
  let rec loop acc ~traced ~until =
    let p = run_pass ~traced ~inspect cs in
    if !first then first_pass_rss := peak_rss_mb ();
    first := false;
    let acc = p :: acc in
    if now () < until then loop acc ~traced ~until else List.rev acc
  in
  let untraced = loop [] ~traced:false ~until:untraced_until in
  let traced =
    if trace then begin
      Obs.Trace.start ();
      let ps = loop [] ~traced:true ~until:(t_start +. seconds) in
      Obs.Trace.stop ();
      ps
    end
    else []
  in
  let all_passes = untraced @ traced in
  let pass_json p =
    obj
      [
        ("wall_s", num p.wall_s);
        ("kernel_s", arr (List.map num p.kernel_s));
        ("alloc_mb", num p.alloc_mb);
        ("cell_ms", arr (List.map (fun x -> num (1000.0 *. (x.minic_s +. x.opt_s +. x.verify_s))) p.measured));
        ("cell_compile_s", arr (List.map (fun x -> num (x.minic_s +. x.opt_s)) p.measured));
        ("cell_verify_s", arr (List.map (fun (x : measured) -> num x.verify_s) p.measured));
        ( "counts",
          obj
            [
              ("symex.paths", string_of_int (isum (fun x -> x.result.Engine.paths) p.measured));
              ("solver.queries", string_of_int (isum (fun x -> x.result.Engine.queries) p.measured));
              ( "solver.solves",
                string_of_int (isum (fun x -> x.result.Engine.component_solves) p.measured) );
            ] );
        ("layers", obj (List.map (fun (k, v) -> (k, num v)) p.traced));
      ]
  in
  print_endline
    (obj
       [
         ("attempted", string_of_int (List.length cs * List.length all_passes));
         ("failed", string_of_int !failed);
         ("errors", arr (List.rev_map str !errors));
         ("settings", settings_json);
         ("ocaml", str Sys.ocaml_version);
         ("code_size", string_of_int (isum (fun x -> x.opt_size) (List.hd all_passes).measured));
         ("run_cycles", string_of_int !cycles);
         ("peak_rss_mb", num !first_pass_rss);
         ("interp_insts", string_of_int !insts);
         ("untraced", arr (List.map pass_json untraced));
         ("traced", arr (List.map pass_json traced));
       ])

(* ---------------- serve replay ---------------- *)

let serve_levels = [ "O0"; "O3"; "OVERIFY" ]

let level_of name = Option.get (Costmodel.of_name name)

(* The trace is a seeded order of a fixed multiset, so that every seed asks
   for the same work: one request per program and level, two thirds of
   them verifies (at n=2 or n=3 by program, a quarter with summaries) and
   one third compiles.  A quarter of the distinct requests are sent again
   within 16 requests, while the first is in flight or recent (dedup), and
   another quarter half the trace apart, past the daemon's 32-reply dedup
   cache, so they run again on a warm store: about 1/3 of requests are
   exact repeats.  The seed decides only the order. *)
let serve_trace ~seed =
  let progs = if mini then List.filteri (fun i _ -> i < 8) sweep_programs else sweep_programs in
  let distinct =
    List.concat
      (List.mapi
         (fun pi (p : Programs.t) ->
           List.mapi
             (fun li level ->
               let verify = (pi + li) mod 3 <> 0 in
               {
                 Protocol.default_request with
                 Protocol.rq_kind = (if verify then Protocol.Verify else Protocol.Compile);
                 rq_program = p.Programs.name;
                 rq_level = level;
                 rq_input_size = 2 + (pi mod 2);
                 rq_timeout = 150.0;
                 rq_jobs = 1;
                 rq_summaries = verify && (pi + (2 * li)) mod 4 = 0;
               })
             serve_levels)
         progs)
  in
  let rng = Random.State.make [| seed |] in
  let order = Array.of_list (List.mapi (fun i rq -> (i, rq)) distinct) in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let half = Array.length order / 2 in
  let slots =
    List.concat
      (List.mapi
         (fun pos (i, rq) ->
           let at = float_of_int pos in
           (at, rq)
           ::
           (match i mod 4 with
           | 0 -> [ (at +. float_of_int (1 + Random.State.int rng 16) +. 0.5, rq) ]
           | 2 ->
               (* after the first sighting in the first half of the order,
                  before it in the second *)
               let d = float_of_int half +. 0.5 in
               [ ((if pos < half then at +. d else at -. d), rq) ]
           | _ -> []))
         (Array.to_list order))
  in
  Array.of_list
    (List.mapi
       (fun i (_, rq) -> { rq with Protocol.rq_id = i + 1 })
       (List.stable_sort (fun (a, _) (b, _) -> compare a b) slots))

type reply = {
  rp_kind : string;
  rp_client_ms : float;
  rp_daemon_ms : float;
  rp_engine_ms : float;
  rp_dedup : string;
  rp_ok : bool;
}

let field j path =
  List.fold_left (fun acc k -> Option.bind acc (fun j -> Json.mem j k)) (Some j) path

let check_reply expected (rq : Protocol.request) (env : Json.t) =
  let k =
    Printf.sprintf "%s/%s/n%d" rq.Protocol.rq_program
      (level_of rq.Protocol.rq_level).Costmodel.name rq.Protocol.rq_input_size
  in
  let what = Protocol.kind_name rq.Protocol.rq_kind ^ " " ^ k in
  let int_at path = Option.bind (field env path) Json.int_ in
  match (Option.bind (field env [ "status" ]) Json.str, Hashtbl.find_opt expected k) with
  | Some "ok", Some e -> (
      match rq.Protocol.rq_kind with
      | Protocol.Compile ->
          int_at [ "result"; "size" ] = Some e.size || fail "%s: size differs" what
      | _ ->
          let bugs =
            match field env [ "result"; "bugs" ] with
            | Some (Json.Arr l) ->
                List.sort_uniq compare
                  (List.filter_map
                     (fun b ->
                       match (Option.bind (Json.mem b "kind") Json.str,
                              Option.bind (Json.mem b "function") Json.str) with
                       | Some kd, Some fn -> Some (kd ^ "@" ^ fn)
                       | _ -> None)
                     l)
            | _ -> []
          in
          (Option.bind (field env [ "result"; "complete" ]) Json.bool_ = Some true
          || fail "%s: incomplete" what)
          && (int_at [ "result"; "paths" ] = Some e.paths || fail "%s: paths differ" what)
          && (int_at [ "result"; "blocks_covered" ] = Some e.blocks
             || fail "%s: blocks covered differ" what)
          && (bugs = e.bugs || fail "%s: bugs differ" what))
  | Some "ok", None -> fail "%s: no expected facts" what
  | _ -> fail "%s: reply %s" what (Json.to_string env)

let serve ~socket ~seed =
  let expected = load_expected () in
  let trace = serve_trace ~seed in
  let answers = Array.make (Array.length trace) (0.0, Error Protocol.Closed) in
  let next = Atomic.make 0 in
  (* closed loop: each connection sends its next request only after the
     previous reply arrived, as a caller waiting for its verdict does;
     replies are parsed and checked after the load *)
  let connection () =
    let conn = Client.connect socket in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length trace then begin
        let t0 = now () in
        let answer = Client.rpc conn trace.(i) in
        answers.(i) <- (1000.0 *. (now () -. t0), answer);
        go ()
      end
    in
    go ();
    Client.close conn
  in
  List.iter Thread.join (List.init 2 (fun _ -> Thread.create connection ()));
  let conn = Client.connect socket in
  let control kind =
    match Client.rpc conn { Protocol.default_request with Protocol.rq_kind = kind } with
    | Ok payload -> payload
    | Error e -> failwith ("control request: " ^ Protocol.frame_error_name e)
  in
  let metrics = Option.value ~default:"{}" (Protocol.extract_field (control Protocol.Metrics) "result") in
  ignore (control Protocol.Shutdown);
  Client.close conn;
  let replies =
    List.map2
      (fun (rq : Protocol.request) (client_ms, answer) ->
        let kind = Protocol.kind_name rq.Protocol.rq_kind in
        match Result.map Json.parse answer with
        | Ok (Ok env) ->
            let f path = Option.value ~default:0.0 (Option.bind (field env path) Json.num) in
            {
              rp_kind = kind;
              rp_client_ms = client_ms;
              rp_daemon_ms = f [ "elapsed_ms" ];
              rp_engine_ms = f [ "result"; "time_ms" ];
              rp_dedup = Option.value ~default:"" (Option.bind (field env [ "dedup" ]) Json.str);
              rp_ok = check_reply expected rq env;
            }
        | _ ->
            {
              rp_kind = kind;
              rp_client_ms = client_ms;
              rp_daemon_ms = 0.0;
              rp_engine_ms = 0.0;
              rp_dedup = "";
              rp_ok = fail "request %d: transport failure" rq.Protocol.rq_id;
            })
      (Array.to_list trace) (Array.to_list answers)
  in
  let reply_json r =
    obj
      [
        ("kind", str r.rp_kind);
        ("client_ms", num r.rp_client_ms);
        ("daemon_ms", num r.rp_daemon_ms);
        ("engine_ms", num r.rp_engine_ms);
        ("dedup", str r.rp_dedup);
        ("ok", string_of_bool r.rp_ok);
      ]
  in
  print_endline
    (obj
       [
         ("attempted", string_of_int (List.length replies));
         ("failed", string_of_int (List.length (List.filter (fun r -> not r.rp_ok) replies)));
         ("errors", arr (List.rev_map str !errors));
         ("replies", arr (List.map reply_json replies));
         ("metrics", metrics);
       ])

(* ---------------- expected facts ---------------- *)

let record ~out =
  let serve_cells =
    List.concat_map
      (fun prog ->
        List.concat_map
          (fun level -> List.map (fun n -> { prog; level; n }) [ 2; 3 ])
          sweep_levels)
      sweep_programs
  in
  let by_key = Hashtbl.create 512 in
  List.iter (fun c -> Hashtbl.replace by_key (key c) c)
    (cells "sat-outliers" @ serve_cells);
  let all = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_key []) in
  let entries =
    List.map
      (fun k ->
        let x, m = run_cell ~profile_passes:false (Hashtbl.find by_key k) in
        if not x.result.Engine.complete then failwith (k ^ ": incomplete");
        if not (replay_witnesses x m) then failwith (String.concat "\n" !errors);
        Printf.eprintf "%s %.2fs\n%!" k (x.minic_s +. x.opt_s +. x.verify_s);
        "  " ^ str k ^ ": " ^ facts_json (verdict_facts m x.result))
      all
  in
  let oc = open_out_bin out in
  output_string oc ("{\n" ^ String.concat ",\n" entries ^ "\n}\n");
  close_out oc

(* ---------------- command line ---------------- *)

let () =
  let args = Array.to_list Sys.argv in
  let opt name =
    let rec find = function
      | k :: v :: _ when k = name -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let req name =
    match opt name with Some v -> v | None -> failwith ("missing " ^ name)
  in
  pin_settings ();
  match List.tl args with
  | "ready" :: _ ->
      ignore (batch_setup ~seed:(int_of_string (req "--seed")) (req "--workload"))
  | "batch" :: _ ->
      batch ~workload:(req "--workload") ~seed:(int_of_string (req "--seed"))
        ~seconds:(float_of_string (req "--seconds"))
        ~trace:(req "--trace" = "1")
  | "serve" :: _ -> serve ~socket:(req "--socket") ~seed:(int_of_string (req "--seed"))
  | "record" :: _ -> record ~out:(req "--out")
  | _ ->
      prerr_endline "usage: worker.exe ready|batch|serve|record [options]";
      exit 2
