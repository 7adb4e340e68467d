(** Dominator tree and dominance frontiers (Cooper–Harvey–Kennedy). *)

module IntSet = Cfg.IntSet

type t
(** A dominator tree, read-only: one value is shared by every caller that
    asks about the same blocks. *)

val compute : Ir.func -> t
(** Memoized with {!Cfg.memo}. *)

val rpo_index : t -> int -> int option
(** Position of a reachable block in reverse postorder. *)

val idom : t -> int -> int option
val children : t -> int -> int list

val dominates : t -> int -> int -> bool
(** Does the first block dominate the second?  Reflexive. *)

val frontiers : Ir.func -> t -> (int, IntSet.t) Hashtbl.t
(** Dominance frontier of every block.  A loop header belongs to its own
    frontier (this is what places the phis for back edges). *)

val frontier_of : (int, IntSet.t) Hashtbl.t -> int -> IntSet.t
