(** Counterexample cache: the UNSAT-subset index.  See cexcache.mli for
    the soundness contract. *)

let max_unsat_sets = 256

type t = {
  mutable unsat_sets : int array list;  (* sorted term-id arrays, newest first *)
  mutable n_unsat : int;
}

let create () = { unsat_sets = []; n_unsat = 0 }

let clear t =
  t.unsat_sets <- [];
  t.n_unsat <- 0

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let note_unsat t ids =
  t.unsat_sets <- ids :: t.unsat_sets;
  if t.n_unsat >= max_unsat_sets then
    t.unsat_sets <- take max_unsat_sets t.unsat_sets
  else t.n_unsat <- t.n_unsat + 1

(* sorted-array subset test, two pointers *)
let subset (small : int array) (big : int array) : bool =
  let ns = Array.length small and nb = Array.length big in
  if ns > nb then false
  else begin
    let i = ref 0 and j = ref 0 in
    while !i < ns && !j < nb do
      if small.(!i) = big.(!j) then begin
        incr i;
        incr j
      end
      else if small.(!i) > big.(!j) then incr j
      else j := nb (* small.(i) absent from big *)
    done;
    !i = ns
  end

let implies_unsat t ids = List.exists (fun s -> subset s ids) t.unsat_sets
