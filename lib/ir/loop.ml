(** Natural-loop detection.

    A back edge is an edge [u -> h] where [h] dominates [u]; the natural loop
    of that edge is [h] plus every block that can reach [u] without passing
    through [h].  Loops sharing a header are merged, as in LLVM's LoopInfo. *)

module IntSet = Cfg.IntSet

type t = {
  header : int;
  latches : int list;       (** sources of back edges into [header] *)
  blocks : IntSet.t;        (** includes the header *)
  exiting : int list;       (** blocks inside with a successor outside *)
  exits : int list;         (** blocks outside with a predecessor inside *)
  preheader : int option;   (** unique out-of-loop predecessor of the header,
                                if it has the header as its only successor *)
}

let mem l bid = IntSet.mem bid l.blocks

(** All natural loops of [fn], outermost first (by increasing block count is
    not guaranteed; order is by header RPO). *)
let find_uncached (fn : Ir.func) : t list =
  let dom = Dom.compute fn in
  let preds = Cfg.preds fn in
  let btbl = Ir.block_tbl fn in
  let reachable = Cfg.reachable fn in
  (* collect back edges *)
  let back = Hashtbl.create 8 in
  List.iter
    (fun (b : Ir.block) ->
      if IntSet.mem b.bid reachable then
        List.iter
          (fun s ->
            if Dom.dominates dom s b.bid then
              Hashtbl.replace back s
                (b.bid :: (try Hashtbl.find back s with Not_found -> [])))
          (Cfg.succs b))
    fn.blocks;
  let loops = ref [] in
  Hashtbl.iter
    (fun header latches ->
      (* blocks: reverse reachability from latches, stopping at header *)
      let set = ref (IntSet.singleton header) in
      let rec go bid =
        if not (IntSet.mem bid !set) then begin
          set := IntSet.add bid !set;
          List.iter go (Cfg.preds_of preds bid)
        end
      in
      List.iter go latches;
      let blocks = !set in
      let exiting = ref [] and exits = ref IntSet.empty in
      IntSet.iter
        (fun bid ->
          match Hashtbl.find_opt btbl bid with
          | None -> ()
          | Some b ->
              let outside =
                List.filter (fun s -> not (IntSet.mem s blocks)) (Cfg.succs b)
              in
              if outside <> [] then begin
                exiting := bid :: !exiting;
                List.iter (fun s -> exits := IntSet.add s !exits) outside
              end)
        blocks;
      let outside_preds =
        List.filter (fun p -> not (IntSet.mem p blocks))
          (Cfg.preds_of preds header)
      in
      let preheader =
        match outside_preds with
        | [ p ] -> (
            match Hashtbl.find_opt btbl p with
            | Some pb when Cfg.succs pb = [ header ] -> Some p
            | _ -> None)
        | _ -> None
      in
      loops :=
        {
          header;
          latches;
          blocks;
          exiting = List.rev !exiting;
          exits = IntSet.elements !exits;
          preheader;
        }
        :: !loops)
    back;
  (* order by header RPO index for determinism *)
  let idx bid = Option.value (Dom.rpo_index dom bid) ~default:max_int in
  List.sort (fun a b -> compare (idx a.header) (idx b.header)) !loops

let find : Ir.func -> t list = Cfg.memo find_uncached

(** Loop-nesting depth of each block (0 = not in any loop). *)
let depth_map (fn : Ir.func) : (int, int) Hashtbl.t =
  let loops = find fn in
  let tbl = Hashtbl.create 16 in
  List.iter (fun (b : Ir.block) -> Hashtbl.replace tbl b.bid 0) fn.blocks;
  List.iter
    (fun l ->
      IntSet.iter
        (fun bid ->
          Hashtbl.replace tbl bid
            (1 + (try Hashtbl.find tbl bid with Not_found -> 0)))
        l.blocks)
    loops;
  tbl

(** Innermost loop containing [bid], if any (smallest block set wins). *)
let innermost_containing loops bid =
  List.fold_left
    (fun acc l ->
      if mem l bid then
        match acc with
        | Some best when IntSet.cardinal best.blocks <= IntSet.cardinal l.blocks
          ->
            acc
        | _ -> Some l
      else acc)
    None loops
