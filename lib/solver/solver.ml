(** Query interface over bit-blasting + CDCL, behind a layered acceleration
    chain (KLEE's counterpart is its solver chain: simplification,
    independence, counterexample cache, then STP; ours adds a Green-style
    canonical cache and an optional persistent cross-run store).

    Layer order for {!check} (DESIGN.md, "Solver acceleration"):

    {ol
    {- constant pruning (smart constructors already folded constants);}
    {- exact-match cache on the ordered term-id list;}
    {- canonicalization: sort structurally + dedup ({!Canon.normalize}),
       so permutations and duplicates of one assertion set share one
       solve;}
    {- independence partitioning ({!Canon.partition}): connected
       components over shared variables are solved separately — on the
       engine's queries, every component except the one touching the new
       branch condition was already solved for the parent state and hits
       the next layer;}
    {- per-component canonical cache, keyed by the α-renamed serialization
       ({!Canon.rename}): structurally equal components share one entry
       even across different variable ids;}
    {- UNSAT-subset rule ({!Cexcache}): a recorded UNSAT subset proves the
       component UNSAT;}
    {- persistent store ({!Store}, optional): canonical verdicts reused
       across runs and processes;}
    {- fresh bit-blast + SAT of the component (counted in
       [component_solves]).}}

    All mutable solver state lives in an explicit {!ctx}.  Contexts are
    cheap to create and deliberately {e not} thread-safe: the parallel
    exploration engine gives every worker domain its own context (the
    shared {!Store.t} has its own lock).

    Determinism contract: the answer to a query — including the satisfying
    model — is a pure function of the assertion {e set}, never of cache
    history or assertion order.  A fresh solve canonicalizes first, so a
    cache hit at any layer returns exactly what the fresh solve would
    have: canonical-cache and store hits translate a canonical-space model
    through the current renaming, which is the fresh answer because
    bit-blasting is equivariant under α-renaming (identical CNF, identical
    deterministic SAT run).  Consequently caching may be disabled
    ([OVERIFY_SOLVER_CACHE=0] or [create ~cache:false]) without changing
    any result: only the hit counters and solve counts move. *)

type result =
  | Unsat
  | Sat of (int * int64) list  (** satisfying assignment: (var id, value) *)

exception Timeout = Sat.Timeout

type stats = {
  mutable queries : int;
  mutable cache_hits : int;
      (** queries answered without any blasting (any layer) *)
  mutable sat_answers : int;
  mutable unsat_answers : int;
  mutable solver_time : float;  (** seconds spent in blasting + SAT *)
  mutable components : int;
      (** independent components across all canonically solved queries *)
  mutable component_solves : int;
      (** components that reached a fresh blast + SAT — the raw solver
          invocations the acceleration chain exists to avoid *)
  mutable hits_exact : int;     (** exact-match (ordered) cache hits *)
  mutable hits_canon : int;     (** per-component canonical cache hits *)
  mutable hits_subset : int;    (** UNSAT-subset rule hits *)
  mutable hits_store : int;     (** persistent cross-run store hits *)
}

let zero_stats () =
  {
    queries = 0;
    cache_hits = 0;
    sat_answers = 0;
    unsat_answers = 0;
    solver_time = 0.0;
    components = 0;
    component_solves = 0;
    hits_exact = 0;
    hits_canon = 0;
    hits_subset = 0;
    hits_store = 0;
  }

(* a left fold from zero, so a float total is bit-identical to any other
   left fold over the same list *)
let sum_stats (l : stats list) : stats =
  List.fold_left
    (fun a b ->
      {
        queries = a.queries + b.queries;
        cache_hits = a.cache_hits + b.cache_hits;
        sat_answers = a.sat_answers + b.sat_answers;
        unsat_answers = a.unsat_answers + b.unsat_answers;
        solver_time = a.solver_time +. b.solver_time;
        components = a.components + b.components;
        component_solves = a.component_solves + b.component_solves;
        hits_exact = a.hits_exact + b.hits_exact;
        hits_canon = a.hits_canon + b.hits_canon;
        hits_subset = a.hits_subset + b.hits_subset;
        hits_store = a.hits_store + b.hits_store;
      })
    (zero_stats ()) l

let layer_counters =
  [
    ("components", fun s -> s.components);
    ("component_solves", fun s -> s.component_solves);
    ("hits_exact", fun s -> s.hits_exact);
    ("hits_canon", fun s -> s.hits_canon);
    ("hits_subset", fun s -> s.hits_subset);
    ("hits_store", fun s -> s.hits_store);
  ]

(** One canonical component verdict; SAT models live in canonical variable
    space so α-equivalent components share the entry. *)
type centry = C_unsat | C_sat of int64 array

type ctx = {
  mutable stats : stats;
  cache : (int list, result) Hashtbl.t;
      (** exact-match cache: ordered term-id list -> result *)
  canon : Canon.ctx;  (** digest/variable-set memos *)
  ctbl : (string, centry) Hashtbl.t;
      (** canonical per-component cache: α-renamed key -> verdict *)
  cex : Cexcache.t;
  reuse : bool;
      (** reuse layers enabled?  [false] keeps canonicalization and
          partitioning (they define the result) but re-solves everything *)
  store : Store.t option;
  faults : Overify_fault.Fault.t option;
      (** injected-fault schedule; a scheduled [timeout@N] makes the N-th
          query raise {!Timeout} before touching any cache layer *)
  mutable deadline : float option;
      (** wall-clock deadline honoured by [check]; long-running
          blasting/SAT work raises {!Timeout} past it *)
  mutable cancel : Overify_fault.Cancel.t option;
      (** cooperative cancellation token, polled at the top of every
          query (the serve daemon threads the request's token here so a
          past-deadline or watchdog-cancelled job stops before its next
          solve); also what an injected [stall@N] query blocks on *)
  hist : Overify_obs.Obs.Hist.t option;
      (** per-query blast+SAT latency histogram; observed only on real
          solves (queries answered from cache cost no solver time).
          [None] (the default) records nothing. *)
  mutable span : Overify_obs.Obs.Span.t option;
      (** parent span for per-query solve spans: every real solve emits a
          one-shot ["solver.check"] child into the flight ring (and trace
          sink), so a request's span tree reaches individual queries.
          [None] (the default) emits nothing. *)
}

let env_cache_default () =
  match Sys.getenv_opt "OVERIFY_SOLVER_CACHE" with
  | Some "0" -> false
  | _ -> true

let create ?deadline ?cancel ?hist ?cache ?store ?faults () =
  {
    stats = zero_stats ();
    cache = Hashtbl.create 1024;
    canon = Canon.create ();
    ctbl = Hashtbl.create 1024;
    cex = Cexcache.create ();
    reuse = (match cache with Some b -> b | None -> env_cache_default ());
    store;
    faults;
    deadline;
    cancel;
    hist;
    span = None;
  }

let stats ctx = ctx.stats

let reset_stats ctx = ctx.stats <- zero_stats ()

(** Drop {e every} acceleration layer this context owns: the exact-match
    cache, the canonical component cache, the UNSAT-subset index and the
    per-term canonicalization memos (the shared persistent store, if any,
    belongs to the run, not the context, and is untouched). *)
let clear_cache ctx =
  Hashtbl.reset ctx.cache;
  Hashtbl.reset ctx.ctbl;
  Cexcache.clear ctx.cex;
  Canon.clear ctx.canon

let set_deadline ctx d = ctx.deadline <- d
let set_cancel ctx c = ctx.cancel <- c

let set_span ctx s = ctx.span <- s

(** Charge one real (uncached) solve to the counters, the latency
    histogram, the enclosing span (flight ring) and — when tracing — the
    trace sink.  Also called on the timeout path so attributed time stays
    consistent with [solver_time]. *)
let charge_solve ctx t0 ~timed_out =
  let dt = Unix.gettimeofday () -. t0 in
  ctx.stats.solver_time <- ctx.stats.solver_time +. dt;
  (match ctx.hist with
  | Some h -> Overify_obs.Obs.Hist.observe h dt
  | None -> ());
  match ctx.span with
  | Some parent ->
      (* the one-shot span emit covers both sinks (trace args carry
         trace/span/parent ids, joining the daemon timeline) *)
      Overify_obs.Obs.Span.emit ~parent ~ts:t0 ~dur:dt
        ~counters:
          (("solver_time", dt)
          :: (if timed_out then [ ("timed_out", 1.0) ] else []))
        "solver.check"
  | None ->
      if Overify_obs.Obs.Trace.enabled () then
        Overify_obs.Obs.Trace.emit ~cat:"solver" ~name:"solver.check"
          ~args:(if timed_out then [ ("timeout", "true") ] else [])
          ~ts:t0 ~dur:dt ()

let sorted_ids (comp : Bv.t list) : int array =
  let a = Array.of_list (List.map (fun (t : Bv.t) -> t.Bv.id) comp) in
  Array.sort compare a;
  a

(** Blast + SAT one component (already in canonical order) and return its
    verdict with the model in canonical variable space. *)
let solve_component ctx (comp : Bv.t list) (renamed : Canon.renamed) : centry =
  ctx.stats.component_solves <- ctx.stats.component_solves + 1;
  let bctx = Blast.create ?deadline:ctx.deadline () in
  List.iter (Blast.assert_true bctx) comp;
  if not (Sat.solve ?deadline:ctx.deadline bctx.Blast.sat) then C_unsat
  else
    C_sat
      (Array.map
         (fun v ->
           match Blast.model_of_var bctx v with Some x -> x | None -> 0L)
         renamed.Canon.cvars)

(** One component through the reuse layers, falling back to a fresh solve.
    Every layer returns exactly what [solve_component] would (see the
    determinism contract above), so the layers are pure memoization.
    [fresh] is incremented when blasting actually happened. *)
let check_component ctx ~fresh (comp : Bv.t list) : result =
  let renamed = Canon.rename ctx.canon comp in
  let answer = function
    | C_unsat -> Unsat
    | C_sat values -> Sat (Canon.model_of_canon renamed values)
  in
  let record entry =
    if ctx.reuse then Hashtbl.replace ctx.ctbl renamed.Canon.key entry;
    (match ctx.store with
    | Some st ->
        Store.add st renamed.Canon.key
          (match entry with
          | C_unsat -> Store.E_unsat
          | C_sat v -> Store.E_sat v)
    | None -> ());
    if ctx.reuse && entry = C_unsat then
      Cexcache.note_unsat ctx.cex (sorted_ids comp)
  in
  if not ctx.reuse then begin
    let entry = solve_component ctx comp renamed in
    incr fresh;
    (* still publish to an explicitly attached store: the store is a
       cross-run artifact, not an in-run reuse layer *)
    (match ctx.store with
    | Some st ->
        Store.add st renamed.Canon.key
          (match entry with
          | C_unsat -> Store.E_unsat
          | C_sat v -> Store.E_sat v)
    | None -> ());
    answer entry
  end
  else
    match Hashtbl.find_opt ctx.ctbl renamed.Canon.key with
    | Some entry ->
        ctx.stats.hits_canon <- ctx.stats.hits_canon + 1;
        answer entry
    | None ->
        if Cexcache.implies_unsat ctx.cex (sorted_ids comp) then begin
          ctx.stats.hits_subset <- ctx.stats.hits_subset + 1;
          Hashtbl.replace ctx.ctbl renamed.Canon.key C_unsat;
          Unsat
        end
        else begin
          match
            Option.bind ctx.store (fun st -> Store.find st renamed.Canon.key)
          with
          (* E_blob entries live under namespaced client keys (never a
             canonical component key); finding one here means a key
             collision we must treat as a miss, not a verdict *)
          | Some ((Store.E_unsat | Store.E_sat _) as e) ->
              ctx.stats.hits_store <- ctx.stats.hits_store + 1;
              let entry =
                match e with
                | Store.E_unsat -> C_unsat
                | Store.E_sat v -> C_sat v
                | Store.E_blob _ -> assert false
              in
              Hashtbl.replace ctx.ctbl renamed.Canon.key entry;
              answer entry
          | Some (Store.E_blob _) | None ->
              let entry = solve_component ctx comp renamed in
              incr fresh;
              record entry;
              answer entry
        end

(** An injected stuck query ([stall@N]): blocks polling only the explicit
    cancellation flag — deliberately ignoring the solver deadline, which
    is what makes it a wedge the engine's own budgets cannot escape —
    until an external party (the serve watchdog) cancels the token.
    Without a token attached nothing could ever free it, so it degrades
    to an ordinary {!Timeout} instead of hanging the process. *)
let stall ctx =
  match ctx.cancel with
  | None -> raise Timeout
  | Some c ->
      while not (Overify_fault.Cancel.cancelled c) do
        Unix.sleepf 0.005
      done;
      raise (Overify_fault.Cancel.Cancelled (Overify_fault.Cancel.reason c))

(** Check satisfiability of the conjunction of width-1 terms. *)
let check (ctx : ctx) (assertions : Bv.t list) : result =
  let stats = ctx.stats in
  stats.queries <- stats.queries + 1;
  (* cooperative cancellation point: every query starts with a token
     check (deadline-aware), so a cancelled job never begins another
     solve *)
  Overify_fault.Cancel.check ctx.cancel;
  (* injected solver timeout: fires before any cache layer, so a faulted
     query costs its caller a path regardless of warm caches *)
  if Overify_fault.Fault.fire ctx.faults Overify_fault.Fault.Solver_timeout then
    raise Timeout;
  if Overify_fault.Fault.fire ctx.faults Overify_fault.Fault.Solver_stall then
    stall ctx;
  (* constant-prune: smart constructors already folded constants *)
  let assertions =
    List.filter (fun (t : Bv.t) -> t.Bv.node <> Bv.Const 1L) assertions
  in
  if List.exists (fun (t : Bv.t) -> t.Bv.node = Bv.Const 0L) assertions then begin
    stats.unsat_answers <- stats.unsat_answers + 1;
    Unsat
  end
  else if assertions = [] then begin
    stats.sat_answers <- stats.sat_answers + 1;
    Sat []
  end
  else begin
    (* exact-match fast path: same assertions in the same order.  (The
       canonical layers below make the result order-independent, so this
       key is just the cheapest possible lookup, not a semantic
       necessity.) *)
    let key = List.map (fun (t : Bv.t) -> t.Bv.id) assertions in
    match if ctx.reuse then Hashtbl.find_opt ctx.cache key else None with
    | Some r ->
        stats.cache_hits <- stats.cache_hits + 1;
        stats.hits_exact <- stats.hits_exact + 1;
        (match r with
        | Sat _ -> stats.sat_answers <- stats.sat_answers + 1
        | Unsat -> stats.unsat_answers <- stats.unsat_answers + 1);
        r
    | None ->
        let t0 = Unix.gettimeofday () in
        (match ctx.deadline with
        | Some d when t0 > d -> raise Timeout
        | _ -> ());
        (* canonical solve: normalize, partition, solve each component.
           This path runs identically with reuse on or off — it defines
           the query's answer. *)
        let comps =
          Canon.partition ctx.canon (Canon.normalize ctx.canon assertions)
        in
        stats.components <- stats.components + List.length comps;
        let fresh = ref 0 in
        let r =
          try
            (* first UNSAT component decides; models concatenate in
               component order (both orders are canonical) *)
            let rec go acc = function
              | [] -> Sat (List.concat (List.rev acc))
              | comp :: rest -> (
                  match check_component ctx ~fresh comp with
                  | Unsat -> Unsat
                  | Sat m -> go (m :: acc) rest)
            in
            go [] comps
          with Timeout ->
            charge_solve ctx t0 ~timed_out:true;
            raise Timeout
        in
        if !fresh > 0 then charge_solve ctx t0 ~timed_out:false
        else stats.cache_hits <- stats.cache_hits + 1;
        (match r with
        | Sat _ -> stats.sat_answers <- stats.sat_answers + 1
        | Unsat -> stats.unsat_answers <- stats.unsat_answers + 1);
        if ctx.reuse then Hashtbl.replace ctx.cache key r;
        r
  end

(** Model lookup with default 0 (unconstrained variables may take any value;
    0 is what the model extraction produces for absent bits). *)
let model_value model id =
  match List.assoc_opt id model with Some v -> v | None -> 0L
