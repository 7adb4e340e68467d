(** Control-flow graph queries over a function's blocks. *)

module IntSet : Set.S with type elt = int
module IntMap : Map.S with type key = int

val succs_of_term : Ir.term -> int list
(** Successor labels; a same-target [Cbr] is reported once. *)

val succs : Ir.block -> int list

val memo : (Ir.func -> 'a) -> Ir.func -> 'a
(** [memo f] remembers [f]'s result for the last function seen on the
    calling domain, keyed on the physical identity ([==]) of its [blocks]
    list.  IR values are immutable, so no invalidation is needed; [f] must
    depend on the blocks only.  All memoized analyses of a domain describe
    one function version: the first miss on another version drops them. *)

type preds
(** A read-only predecessor table, shared by every caller that asks about
    the same blocks. *)

val preds : Ir.func -> preds
(** Predecessor table: block id -> predecessors, in block order.
    Memoized with {!memo}. *)

val preds_of : preds -> int -> int list

val preds_table : Ir.func -> (int, int list) Hashtbl.t
(** A fresh, private predecessor table that the caller may update. *)

val reachable : Ir.func -> IntSet.t
(** Blocks reachable from the entry.  Memoized with {!memo}. *)

val postorder : Ir.func -> int list
val rpo : Ir.func -> int list
(** Reverse postorder of reachable blocks (entry first). *)

val remove_unreachable : Ir.func -> Ir.func * bool
(** Drop unreachable blocks and prune phi entries from removed edges. *)

val redirect_term : int -> int -> Ir.term -> Ir.term
(** [redirect_term from_l to_l t] retargets branches to [from_l]. *)

val retarget_phis : Ir.block -> from_pred:int -> to_pred:int -> Ir.block
(** Rewrite a block's phi incoming labels for a moved edge. *)
