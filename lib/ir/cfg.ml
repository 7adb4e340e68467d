(** Control-flow graph queries over a function's blocks. *)

open Ir

module IntSet = Set.Make (Int)
module IntMap = Map.Make (Int)

let succs_of_term = function
  | Br l -> [ l ]
  | Cbr (_, t, e) -> if t = e then [ t ] else [ t; e ]
  | Ret _ | Unreachable -> []

let succs (b : block) = succs_of_term b.term

(* Every memo slot's reset, and the block list of the function version the
   calling domain's slots were last filled for. *)
let resets : (unit -> unit) list ref = ref []
let version = Domain.DLS.new_key (fun () -> [])

(** [memo f] caches [f]'s result for the last function it saw, keyed on the
    physical identity of its [blocks] list.  IR values are immutable, so a
    hit is always valid: any edit builds a new list and misses.  The slot
    is per domain and holds the key and the value as one tuple, so threads
    sharing a domain never see a key paired with another key's value.  The
    first miss on a new function version empties every slot of the domain,
    so the cache never keeps a dead version alive while passes build the
    next one. *)
let memo (f : func -> 'a) : func -> 'a =
  let slot = Domain.DLS.new_key (fun () -> None) in
  resets := (fun () -> Domain.DLS.set slot None) :: !resets;
  fun fn ->
    match Domain.DLS.get slot with
    | Some (blocks, v) when blocks == fn.blocks -> v
    | _ ->
        if Domain.DLS.get version != fn.blocks then begin
          List.iter (fun reset -> reset ()) !resets;
          Domain.DLS.set version fn.blocks
        end;
        let v = f fn in
        Domain.DLS.set slot (Some (fn.blocks, v));
        v

type preds = (int, int list) Hashtbl.t

(** Predecessor table: block id -> list of predecessor block ids, in
    iteration order of [fn.blocks]. *)
let preds_table (fn : func) : (int, int list) Hashtbl.t =
  let tbl = Hashtbl.create (List.length fn.blocks) in
  List.iter (fun b -> Hashtbl.replace tbl b.bid []) fn.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          match Hashtbl.find_opt tbl s with
          | Some l -> Hashtbl.replace tbl s (b.bid :: l)
          | None -> ())
        (succs b))
    fn.blocks;
  Hashtbl.iter (fun k l -> Hashtbl.replace tbl k (List.rev l)) tbl;
  tbl

let preds : func -> preds = memo preds_table

let preds_of tbl bid = try Hashtbl.find tbl bid with Not_found -> []

(** Blocks reachable from the entry. *)
let reachable : func -> IntSet.t =
  memo (fun fn ->
      let btbl = block_tbl fn in
      let seen = ref IntSet.empty in
      let rec go bid =
        if not (IntSet.mem bid !seen) then begin
          seen := IntSet.add bid !seen;
          match Hashtbl.find_opt btbl bid with
          | Some b -> List.iter go (succs b)
          | None -> ()
        end
      in
      go (entry fn).bid;
      !seen)

(** Postorder of reachable blocks (entry last). *)
let postorder (fn : func) : int list =
  let btbl = block_tbl fn in
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec go bid =
    if not (Hashtbl.mem seen bid) then begin
      Hashtbl.replace seen bid ();
      (match Hashtbl.find_opt btbl bid with
      | Some b -> List.iter go (succs b)
      | None -> ());
      order := bid :: !order
    end
  in
  go (entry fn).bid;
  List.rev !order

(** Reverse postorder of reachable blocks (entry first). *)
let rpo (fn : func) : int list = List.rev (postorder fn)

(** Drop blocks not reachable from the entry, and prune phi incoming entries
    coming from removed blocks. *)
let remove_unreachable (fn : func) : func * bool =
  let live = reachable fn in
  if IntSet.cardinal live = List.length fn.blocks then (fn, false)
  else
    let blocks = List.filter (fun b -> IntSet.mem b.bid live) fn.blocks in
    let prune_phi = function
      | Phi (d, ty, incoming) ->
          Phi (d, ty, List.filter (fun (p, _) -> IntSet.mem p live) incoming)
      | i -> i
    in
    let blocks =
      List.map (fun b -> { b with insts = List.map prune_phi b.insts }) blocks
    in
    ({ fn with blocks }, true)

(** Replace successor [from_l] with [to_l] in a terminator. *)
let redirect_term from_l to_l = function
  | Br l when l = from_l -> Br to_l
  | Cbr (c, t, e) when t = from_l || e = from_l ->
      Cbr (c, (if t = from_l then to_l else t), if e = from_l then to_l else e)
  | t -> t

(** In block [bid]'s phis, retarget incoming edges from [from_pred] to
    [to_pred]. *)
let retarget_phis (b : block) ~from_pred ~to_pred =
  let fix = function
    | Phi (d, ty, incoming) ->
        Phi
          ( d,
            ty,
            List.map
              (fun (p, v) -> ((if p = from_pred then to_pred else p), v))
              incoming )
    | i -> i
  in
  { b with insts = List.map fix b.insts }
