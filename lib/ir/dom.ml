(** Dominator tree and dominance frontiers, computed with the iterative
    algorithm of Cooper, Harvey and Kennedy ("A simple, fast dominance
    algorithm"). *)

module IntSet = Cfg.IntSet

type t = {
  idom : (int, int) Hashtbl.t;        (** immediate dominator; entry absent *)
  children : (int, int list) Hashtbl.t;
  rpo_index : (int, int) Hashtbl.t;
  entry : int;
  tin : (int, int) Hashtbl.t;   (** Euler-tour entry time in the dom tree *)
  tout : (int, int) Hashtbl.t;  (** … exit time: O(1) dominance queries *)
}

let compute_uncached (fn : Ir.func) : t =
  let order = Cfg.rpo fn in
  let n = List.length order in
  let index = Hashtbl.create n in
  List.iteri (fun i bid -> Hashtbl.replace index bid i) order;
  let preds = Cfg.preds fn in
  let entry = (Ir.entry fn).bid in
  (* idom.(i) over rpo indices; -1 = undefined *)
  let arr = Array.of_list order in
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while !a > !b do a := idom.(!a) done;
      while !b > !a do b := idom.(!b) done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iteri
      (fun i bid ->
        if i > 0 then begin
          let ps =
            List.filter_map (fun p -> Hashtbl.find_opt index p)
              (Cfg.preds_of preds bid)
          in
          let processed = List.filter (fun p -> idom.(p) >= 0) ps in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(i) <> new_idom then begin
                idom.(i) <- new_idom;
                changed := true
              end
        end)
      order
  done;
  let idom_tbl = Hashtbl.create n in
  let children = Hashtbl.create n in
  List.iter (fun bid -> Hashtbl.replace children bid []) order;
  Array.iteri
    (fun i bid ->
      if i > 0 && idom.(i) >= 0 then begin
        let parent = arr.(idom.(i)) in
        Hashtbl.replace idom_tbl bid parent;
        Hashtbl.replace children parent
          (bid :: (try Hashtbl.find children parent with Not_found -> []))
      end)
    arr;
  (* Euler-tour numbering of the dominator tree for O(1) queries; the tree
     can be thousands deep after heavy peeling, so use an explicit stack *)
  let tin = Hashtbl.create n and tout = Hashtbl.create n in
  let clock = ref 0 in
  let stack = ref [ `Enter entry ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | `Enter bid :: rest ->
        incr clock;
        Hashtbl.replace tin bid !clock;
        stack :=
          List.map (fun c -> `Enter c)
            (try Hashtbl.find children bid with Not_found -> [])
          @ (`Leave bid :: rest)
    | `Leave bid :: rest ->
        incr clock;
        Hashtbl.replace tout bid !clock;
        stack := rest
  done;
  { idom = idom_tbl; children; rpo_index = index; entry; tin; tout }

let compute : Ir.func -> t = Cfg.memo compute_uncached

let rpo_index t bid = Hashtbl.find_opt t.rpo_index bid

let idom t bid = Hashtbl.find_opt t.idom bid

let children t bid = try Hashtbl.find t.children bid with Not_found -> []

(** Does [a] dominate [b]?  (Reflexive; O(1) via Euler-tour intervals.) *)
let dominates t a b =
  if a = b then true
  else
    match
      ( Hashtbl.find_opt t.tin a, Hashtbl.find_opt t.tout a,
        Hashtbl.find_opt t.tin b )
    with
    | (Some ia, Some oa, Some ib) -> ia <= ib && ib <= oa
    | _ -> false

(** Dominance frontier of every block. *)
let frontiers (fn : Ir.func) (t : t) : (int, IntSet.t) Hashtbl.t =
  let preds = Cfg.preds fn in
  let df = Hashtbl.create 16 in
  let add bid x =
    let cur = try Hashtbl.find df bid with Not_found -> IntSet.empty in
    Hashtbl.replace df bid (IntSet.add x cur)
  in
  List.iter
    (fun (b : Ir.block) ->
      let ps = Cfg.preds_of preds b.bid in
      if List.length ps >= 2 then
        List.iter
          (fun p ->
            if Hashtbl.mem t.rpo_index p then begin
              (* walk up from each predecessor to idom(b), adding b to the
                 frontier of every block passed; note the walk must NOT stop
                 at b itself — a loop header belongs to its own frontier *)
              let runner = ref p in
              let stop = idom t b.bid in
              let continue = ref true in
              while !continue do
                if Some !runner = stop then continue := false
                else begin
                  add !runner b.bid;
                  match idom t !runner with
                  | Some p' -> runner := p'
                  | None -> continue := false
                end
              done
            end)
          ps)
    fn.blocks;
  df

let frontier_of df bid =
  try Hashtbl.find df bid with Not_found -> IntSet.empty
