(** Counterexample cache: the UNSAT-subset index (DESIGN.md, "Solver
    acceleration").

    If a previously-UNSAT assertion set is a subset of the current query,
    the current query is UNSAT.  Sound because adding conjuncts can only
    shrink the solution set; usable on the model-producing path since an
    UNSAT answer carries no model.  Per solver context and in-memory.

    Assertion sets are identified by hash-consed term ids (structural
    equality is physical equality within one [Bv] generation), so subset
    tests are exact — no digest-collision unsoundness is possible.  The
    index is bounded; eviction only costs hits, never correctness. *)

type t

val create : unit -> t
val clear : t -> unit

val note_unsat : t -> int array -> unit
(** Record a sorted term-id array whose conjunction is UNSAT. *)

val implies_unsat : t -> int array -> bool
(** Is some recorded UNSAT set a subset of this sorted term-id array? *)
