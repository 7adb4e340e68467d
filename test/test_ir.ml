(** Unit tests for the IR core: constants, evaluation, CFG, dominators,
    loops, call graph, builder and the structural verifier. *)

open Overify_ir
module I = Ir

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let i64 = Alcotest.int64

(* ------------- constants and evaluation ------------- *)

let test_norm () =
  check i64 "i8 norm" 0x34L (I.norm I.I8 0x1234L);
  check i64 "i1 norm" 1L (I.norm I.I1 3L);
  check i64 "i32 norm" 0xFFFFFFFFL (I.norm I.I32 (-1L));
  check i64 "i64 norm" (-1L) (I.norm I.I64 (-1L))

let test_signed_of () =
  check i64 "i8 -1" (-1L) (I.signed_of I.I8 0xFFL);
  check i64 "i8 127" 127L (I.signed_of I.I8 0x7FL);
  check i64 "i8 -128" (-128L) (I.signed_of I.I8 0x80L);
  check i64 "i16 -1" (-1L) (I.signed_of I.I16 0xFFFFL);
  check i64 "i32 min" (Int64.of_int32 Int32.min_int)
    (I.signed_of I.I32 0x80000000L)

let test_eval_binop () =
  let eval op ty a b = I.eval_binop op ty (I.norm ty a) (I.norm ty b) in
  check (Alcotest.option i64) "add wrap i8" (Some 0L) (eval I.Add I.I8 255L 1L);
  check (Alcotest.option i64) "sub wrap i8" (Some 255L) (eval I.Sub I.I8 0L 1L);
  check (Alcotest.option i64) "mul i8" (Some 0xE8L) (eval I.Mul I.I8 100L 10L);
  check (Alcotest.option i64) "sdiv -7/2" (Some (I.norm I.I32 (-3L)))
    (eval I.Sdiv I.I32 (-7L) 2L);
  check (Alcotest.option i64) "srem -7%2" (Some (I.norm I.I32 (-1L)))
    (eval I.Srem I.I32 (-7L) 2L);
  check (Alcotest.option i64) "udiv 0xFF/2" (Some 127L) (eval I.Udiv I.I8 255L 2L);
  check (Alcotest.option i64) "div by zero" None (eval I.Sdiv I.I32 5L 0L);
  check (Alcotest.option i64) "urem by zero" None (eval I.Urem I.I32 5L 0L);
  check (Alcotest.option i64) "shl" (Some 0x80L) (eval I.Shl I.I8 1L 7L);
  check (Alcotest.option i64) "shl masks amount" (Some 1L) (eval I.Shl I.I8 1L 8L);
  check (Alcotest.option i64) "lshr i8" (Some 0x7FL) (eval I.Lshr I.I8 255L 1L);
  check (Alcotest.option i64) "ashr i8 neg" (Some 0xFFL) (eval I.Ashr I.I8 255L 1L);
  check (Alcotest.option i64) "xor" (Some 0L) (eval I.Xor I.I32 42L 42L)

let test_eval_cmp () =
  check bool "slt signed" true (I.eval_cmp I.Slt I.I8 (I.norm I.I8 (-1L)) 1L);
  check bool "ult unsigned" false (I.eval_cmp I.Ult I.I8 (I.norm I.I8 (-1L)) 1L);
  check bool "sge" true (I.eval_cmp I.Sge I.I32 5L 5L);
  check bool "ne" false (I.eval_cmp I.Ne I.I32 5L 5L);
  check bool "ugt 64" true
    (I.eval_cmp I.Ugt I.I64 (I.norm I.I64 (-1L)) 1L)

let test_eval_cast () =
  check i64 "zext i8->i32" 0xFFL (I.eval_cast I.Zext I.I32 0xFFL I.I8);
  check i64 "sext i8->i32" 0xFFFFFFFFL (I.eval_cast I.Sext I.I32 0xFFL I.I8);
  check i64 "trunc i32->i8" 0x34L (I.eval_cast I.Trunc I.I8 0x1234L I.I32)

let test_sizes () =
  check int "i8" 1 (I.size_of_ty I.I8);
  check int "i32" 4 (I.size_of_ty I.I32);
  check int "ptr" 8 (I.size_of_ty I.Ptr);
  check int "arr" 12 (I.size_of_ty (I.Arr (I.I32, 3)));
  check int "nested arr" 24 (I.size_of_ty (I.Arr (I.Arr (I.I8, 4), 6)));
  check int "bits i1" 1 (I.bits_of_ty I.I1)

(* ------------- builder & structure ------------- *)

(* build: entry -> (cond ? L1 : L2) -> join; a classic diamond *)
let build_diamond () =
  let b = Builder.create ~name:"diamond" ~params:[ I.I32 ] ~ret:I.I32 in
  let p = List.hd (Builder.param_regs b) in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let join = Builder.new_block b in
  let c = Builder.cmp b I.Sgt I.I32 (I.Reg p) (I.imm I.I32 0L) in
  Builder.term b (I.Cbr (c, l1, l2));
  Builder.switch_to b l1;
  let v1 = Builder.bin b I.Add I.I32 (I.Reg p) (I.imm I.I32 1L) in
  Builder.term b (I.Br join);
  Builder.switch_to b l2;
  let v2 = Builder.bin b I.Sub I.I32 (I.Reg p) (I.imm I.I32 1L) in
  Builder.term b (I.Br join);
  Builder.switch_to b join;
  let d = Builder.fresh b in
  Builder.add_inst b
    (I.Phi (d, I.I32, [ (l1, v1); (l2, v2) ]));
  Builder.term b (I.Ret (Some (I.Reg d)));
  Builder.finish b

(* entry -> header <-> body, header -> exit; a while loop *)
let build_loop () =
  let b = Builder.create ~name:"loop" ~params:[ I.I32 ] ~ret:I.I32 in
  let header = Builder.new_block b and body = Builder.new_block b in
  let exit_ = Builder.new_block b in
  let slot = Builder.entry_alloca b I.I32 1 in
  Builder.store b I.I32 (I.imm I.I32 0L) slot;
  Builder.term b (I.Br header);
  Builder.switch_to b header;
  let i = Builder.load b I.I32 slot in
  let c = Builder.cmp b I.Slt I.I32 i (I.imm I.I32 10L) in
  Builder.term b (I.Cbr (c, body, exit_));
  Builder.switch_to b body;
  let i2 = Builder.load b I.I32 slot in
  let i3 = Builder.bin b I.Add I.I32 i2 (I.imm I.I32 1L) in
  Builder.store b I.I32 i3 slot;
  Builder.term b (I.Br header);
  Builder.switch_to b exit_;
  let r = Builder.load b I.I32 slot in
  Builder.term b (I.Ret (Some r));
  Builder.finish b

let test_builder_diamond () =
  let fn = build_diamond () in
  check int "4 blocks" 4 (I.num_blocks fn);
  Verify.check_exn ~ssa:true fn

let test_builder_loop () =
  let fn = build_loop () in
  check int "4 blocks" 4 (I.num_blocks fn);
  Verify.check_exn ~memform:true fn

let test_func_size () =
  let fn = build_diamond () in
  check int "size counts insts + terminators" (4 + 4) (I.func_size fn)

let test_subst () =
  let fn = build_diamond () in
  let p = List.hd (List.map fst fn.I.params) in
  let fn2 = I.subst_func p (I.imm I.I32 7L) fn in
  (* no more uses of p *)
  let uses = ref 0 in
  I.iter_insts
    (fun _ i ->
      List.iter
        (fun v -> if v = I.Reg p then incr uses)
        (I.uses_of_inst i))
    fn2;
  check int "param uses gone" 0 !uses

(* ------------- CFG ------------- *)

let test_cfg_preds_succs () =
  let fn = build_diamond () in
  let entry = (I.entry fn).I.bid in
  let preds = Cfg.preds fn in
  check int "entry has no preds" 0 (List.length (Cfg.preds_of preds entry));
  let join =
    match List.rev fn.I.blocks with b :: _ -> b.I.bid | [] -> assert false
  in
  check int "join has 2 preds" 2 (List.length (Cfg.preds_of preds join));
  check int "reachable = all" 4 (Cfg.IntSet.cardinal (Cfg.reachable fn))

let test_cfg_rpo () =
  let fn = build_diamond () in
  let order = Cfg.rpo fn in
  check int "rpo covers all" 4 (List.length order);
  check int "entry first" (I.entry fn).I.bid (List.hd order)

let test_remove_unreachable () =
  let fn = build_diamond () in
  (* add an unreachable block *)
  let dead = { I.bid = fn.I.next; insts = []; term = I.Ret (Some (I.imm I.I32 0L)) } in
  let fn = { fn with I.blocks = fn.I.blocks @ [ dead ]; next = fn.I.next + 1 } in
  let (fn', changed) = Cfg.remove_unreachable fn in
  check bool "changed" true changed;
  check int "back to 4" 4 (I.num_blocks fn')

(* ------------- dominators ------------- *)

let test_dominators_diamond () =
  let fn = build_diamond () in
  let dom = Dom.compute fn in
  let bids = List.map (fun (b : I.block) -> b.I.bid) fn.I.blocks in
  match bids with
  | [ entry; l1; l2; join ] ->
      check bool "entry dominates all" true
        (List.for_all (Dom.dominates dom entry) bids);
      check bool "l1 !dom join" false (Dom.dominates dom l1 join);
      check bool "l2 !dom join" false (Dom.dominates dom l2 join);
      check (Alcotest.option int) "idom join = entry" (Some entry)
        (Dom.idom dom join);
      (* dominance frontiers: DF(l1) = DF(l2) = {join} *)
      let df = Dom.frontiers fn dom in
      check bool "df l1 = {join}" true
        (Cfg.IntSet.equal (Dom.frontier_of df l1) (Cfg.IntSet.singleton join));
      check bool "df entry empty" true
        (Cfg.IntSet.is_empty (Dom.frontier_of df entry))
  | _ -> Alcotest.fail "unexpected block structure"

(* the Euler-tour O(1) dominance must agree with the definition on a deep
   chain (the shape heavy peeling produces) *)
let test_dominates_deep_chain () =
  let b = Builder.create ~name:"chain" ~params:[] ~ret:I.I32 in
  let blocks = Array.init 300 (fun _ -> Builder.new_block b) in
  Builder.term b (I.Br blocks.(0));
  Array.iteri
    (fun i l ->
      Builder.switch_to b l;
      if i + 1 < Array.length blocks then Builder.term b (I.Br blocks.(i + 1))
      else Builder.term b (I.Ret (Some (I.imm I.I32 0L))))
    blocks;
  let fn = Builder.finish b in
  let dom = Dom.compute fn in
  check bool "first dominates last" true
    (Dom.dominates dom blocks.(0) blocks.(299));
  check bool "mid dominates later" true
    (Dom.dominates dom blocks.(100) blocks.(200));
  check bool "later does not dominate earlier" false
    (Dom.dominates dom blocks.(200) blocks.(100));
  check bool "entry dominates all" true
    (Dom.dominates dom (I.entry fn).I.bid blocks.(299))

(* regression for the mem2reg bug: a loop header must be in its own
   dominance frontier *)
let test_frontier_self_loop () =
  let fn = build_loop () in
  let dom = Dom.compute fn in
  let df = Dom.frontiers fn dom in
  let header = List.nth (List.map (fun (b : I.block) -> b.I.bid) fn.I.blocks) 1 in
  check bool "header in own frontier" true
    (Cfg.IntSet.mem header (Dom.frontier_of df header))

(* ------------- loops ------------- *)

let test_loop_detection () =
  let fn = build_loop () in
  let loops = Loop.find fn in
  check int "one loop" 1 (List.length loops);
  let l = List.hd loops in
  check int "two blocks in loop" 2 (Cfg.IntSet.cardinal l.Loop.blocks);
  check int "one latch" 1 (List.length l.Loop.latches);
  check int "one exit" 1 (List.length l.Loop.exits);
  check bool "has preheader" true (l.Loop.preheader <> None)

let test_loop_depths () =
  let fn = build_loop () in
  let depth = Loop.depth_map fn in
  let l = List.hd (Loop.find fn) in
  check int "header depth 1" 1 (Hashtbl.find depth l.Loop.header);
  check int "entry depth 0" 0 (Hashtbl.find depth (I.entry fn).I.bid)

let test_no_loops_in_diamond () =
  check int "diamond has no loops" 0 (List.length (Loop.find (build_diamond ())))

(* ------------- memoized analyses ------------- *)

(* entry -> a -> b -> c (ret 0), plus d (ret 1) that nothing reaches yet *)
let build_chain () =
  let b = Builder.create ~name:"chain" ~params:[ I.I32 ] ~ret:I.I32 in
  let p = List.hd (Builder.param_regs b) in
  let la = Builder.new_block b and lb = Builder.new_block b in
  let lc = Builder.new_block b and ld = Builder.new_block b in
  Builder.term b (I.Br la);
  Builder.switch_to b la;
  Builder.term b (I.Br lb);
  Builder.switch_to b lb;
  let c = Builder.cmp b I.Sgt I.I32 (I.Reg p) (I.imm I.I32 0L) in
  Builder.term b (I.Br lc);
  Builder.switch_to b lc;
  Builder.term b (I.Ret (Some (I.imm I.I32 0L)));
  Builder.switch_to b ld;
  Builder.term b (I.Ret (Some (I.imm I.I32 1L)));
  (Builder.finish b, la, lb, lc, ld, c)

(* the analyses are memoized on the identity of the block list: asking
   twice gives the same value, and an edited function is never answered
   from the cache *)
let test_memo_contract () =
  let (fn, la, lb, lc, ld, c) = build_chain () in
  let dom = Dom.compute fn in
  check bool "Dom.compute is shared" true (dom == Dom.compute fn);
  check bool "Cfg.preds is shared" true (Cfg.preds fn == Cfg.preds fn);
  check int "no loops" 0 (List.length (Loop.find fn));
  check bool "b dominates c" true (Dom.dominates dom lb lc);
  check bool "d unreachable" false (Dom.dominates dom la ld);
  (* b -> a is a back edge; c becomes unreachable and d reachable *)
  let blk = Ir.find_block fn lb in
  let fn' = Ir.update_block fn { blk with I.term = I.Cbr (c, la, ld) } in
  let dom' = Dom.compute fn' in
  (match Loop.find fn' with
  | [ l ] ->
      check int "loop header" la l.Loop.header;
      check (Alcotest.list int) "loop latches" [ lb ] l.Loop.latches
  | ls -> Alcotest.failf "expected one loop, found %d" (List.length ls));
  check (Alcotest.list int) "preds of a gain b"
    [ (I.entry fn).I.bid; lb ]
    (Cfg.preds_of (Cfg.preds fn') la);
  check (Alcotest.list int) "preds of d" [ lb ] (Cfg.preds_of (Cfg.preds fn') ld);
  check bool "b no longer dominates c" false (Dom.dominates dom' lb lc);
  check bool "b dominates d" true (Dom.dominates dom' lb ld);
  check bool "c unreachable" false (Cfg.IntSet.mem lc (Cfg.reachable fn'));
  (* alternating between two functions (A, B, A) keeps each one's answer *)
  List.iter
    (fun (name, f, loops, a_dom_c) ->
      check int (name ^ ": loops") loops (List.length (Loop.find f));
      check bool (name ^ ": a dominates c") a_dom_c
        (Dom.dominates (Dom.compute f) la lc);
      check bool (name ^ ": d reachable") (f == fn')
        (Cfg.IntSet.mem ld (Cfg.reachable f)))
    [ ("A", fn, 0, true); ("B", fn', 1, false); ("A", fn, 0, true) ]

(* ------------- verifier ------------- *)

let expect_invalid ?ssa ?memform fn =
  match Verify.check ?ssa ?memform fn with
  | Ok () -> Alcotest.fail "verifier accepted invalid IR"
  | Error _ -> ()

let test_verify_catches_double_def () =
  let fn = build_diamond () in
  let blk = I.entry fn in
  let dup =
    { blk with I.insts = blk.I.insts @ blk.I.insts }
  in
  expect_invalid (I.update_block fn dup)

let test_verify_catches_bad_target () =
  let fn = build_diamond () in
  let blk = I.entry fn in
  let bad = { blk with I.term = I.Br 9999 } in
  expect_invalid (I.update_block fn bad)

let test_verify_catches_type_error () =
  let b = Builder.create ~name:"bad" ~params:[ I.I32 ] ~ret:I.I32 in
  let p = List.hd (Builder.param_regs b) in
  (* i8 add over an i32 operand *)
  let v = Builder.bin b I.Add I.I8 (I.Reg p) (I.imm I.I8 1L) in
  ignore v;
  Builder.term b (I.Ret (Some (I.Reg p)));
  expect_invalid (Builder.finish b)

let test_verify_catches_use_before_def () =
  let b = Builder.create ~name:"ubd" ~params:[] ~ret:I.I32 in
  let d1 = Builder.fresh b in
  let d2 = Builder.fresh b in
  Builder.add_inst b (I.Bin (d1, I.Add, I.I32, I.Reg d2, I.imm I.I32 1L));
  Builder.add_inst b (I.Bin (d2, I.Add, I.I32, I.imm I.I32 1L, I.imm I.I32 1L));
  Builder.term b (I.Ret (Some (I.Reg d1)));
  expect_invalid ~ssa:true (Builder.finish b)

let test_verify_accepts_good () =
  Verify.check_exn ~ssa:true (build_diamond ());
  Verify.check_exn (build_loop ())

(* ------------- typing ------------- *)

let test_typing () =
  let fn = build_diamond () in
  let t = Typing.of_func fn in
  let p = List.hd (List.map fst fn.I.params) in
  check bool "param typed i32" true (Typing.reg_ty t p = I.I32);
  check bool "glob is ptr" true (Typing.value_ty t (I.Glob "g") = I.Ptr)

(* ------------- callgraph ------------- *)

let simple_module () =
  let mk name callees =
    let b = Builder.create ~name ~params:[] ~ret:I.I32 in
    List.iter (fun c -> ignore (Builder.call b I.I32 c [])) callees;
    Builder.term b (I.Ret (Some (I.imm I.I32 0L)));
    Builder.finish b
  in
  {
    I.globals = [];
    funcs =
      [ mk "main" [ "a"; "b" ]; mk "a" [ "b" ]; mk "b" []; mk "r" [ "r" ] ];
  }

let test_callgraph () =
  let m = simple_module () in
  let main = I.find_func_exn m "main" in
  check (Alcotest.list Alcotest.string) "callees" [ "a"; "b" ]
    (Callgraph.callees m main);
  check bool "r cyclic" true (Callgraph.in_cycle m "r");
  check bool "a acyclic" false (Callgraph.in_cycle m "a");
  let order = Callgraph.bottom_up_order m in
  let pos x = Option.get (List.find_index (( = ) x) order) in
  check bool "b before a" true (pos "b" < pos "a");
  check bool "a before main" true (pos "a" < pos "main")

(* Tarjan SCC grouping: a two-function cycle (mutual recursion) must land
   in one SCC and be flagged cyclic — the summary layer keys on this to
   make recursive functions Opaque *)
let test_sccs () =
  let mk name callees =
    let b = Builder.create ~name ~params:[] ~ret:I.I32 in
    List.iter (fun c -> ignore (Builder.call b I.I32 c [])) callees;
    Builder.term b (I.Ret (Some (I.imm I.I32 0L)));
    Builder.finish b
  in
  let m =
    {
      I.globals = [];
      funcs =
        [ mk "main" [ "even"; "leaf" ]; mk "even" [ "odd" ];
          mk "odd" [ "even"; "leaf" ]; mk "leaf" [] ];
    }
  in
  let sccs = Callgraph.sccs m in
  let scc_of n = List.find (List.mem n) sccs in
  check (Alcotest.list Alcotest.string) "even and odd form one SCC"
    [ "even"; "odd" ]
    (List.sort compare (scc_of "even"));
  check bool "main is a singleton SCC" true (scc_of "main" = [ "main" ]);
  let cyc = Callgraph.cyclic m in
  check bool "even cyclic" true (Callgraph.StrSet.mem "even" cyc);
  check bool "odd cyclic" true (Callgraph.StrSet.mem "odd" cyc);
  check bool "main acyclic" false (Callgraph.StrSet.mem "main" cyc);
  check bool "leaf acyclic" false (Callgraph.StrSet.mem "leaf" cyc);
  (* reverse topological order: every callee's SCC precedes its callers' *)
  let pos n =
    Option.get (List.find_index (fun scc -> List.mem n scc) sccs)
  in
  check bool "leaf before the cycle" true (pos "leaf" < pos "even");
  check bool "cycle before main" true (pos "even" < pos "main")

(* ------------- printer ------------- *)

let test_printer () =
  let fn = build_diamond () in
  let s = Printer.func_to_string fn in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check bool "define" true (contains "define i32 @diamond");
  check bool "phi" true (contains "phi");
  check bool "icmp" true (contains "icmp sgt");
  check bool "ret" true (contains "ret")

let () =
  Alcotest.run "ir"
    [
      ( "constants",
        [
          Alcotest.test_case "norm" `Quick test_norm;
          Alcotest.test_case "signed_of" `Quick test_signed_of;
          Alcotest.test_case "eval_binop" `Quick test_eval_binop;
          Alcotest.test_case "eval_cmp" `Quick test_eval_cmp;
          Alcotest.test_case "eval_cast" `Quick test_eval_cast;
          Alcotest.test_case "sizes" `Quick test_sizes;
        ] );
      ( "builder",
        [
          Alcotest.test_case "diamond" `Quick test_builder_diamond;
          Alcotest.test_case "loop" `Quick test_builder_loop;
          Alcotest.test_case "func_size" `Quick test_func_size;
          Alcotest.test_case "subst" `Quick test_subst;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "preds/succs" `Quick test_cfg_preds_succs;
          Alcotest.test_case "rpo" `Quick test_cfg_rpo;
          Alcotest.test_case "remove_unreachable" `Quick test_remove_unreachable;
        ] );
      ( "dominators",
        [
          Alcotest.test_case "diamond" `Quick test_dominators_diamond;
          Alcotest.test_case "deep chain (Euler-tour query)" `Quick
            test_dominates_deep_chain;
          Alcotest.test_case "loop header in own frontier (regression)" `Quick
            test_frontier_self_loop;
        ] );
      ( "loops",
        [
          Alcotest.test_case "detection" `Quick test_loop_detection;
          Alcotest.test_case "depths" `Quick test_loop_depths;
          Alcotest.test_case "diamond loop-free" `Quick test_no_loops_in_diamond;
        ] );
      ( "memo",
        [
          Alcotest.test_case "analyses follow the function version" `Quick
            test_memo_contract;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "double def" `Quick test_verify_catches_double_def;
          Alcotest.test_case "bad target" `Quick test_verify_catches_bad_target;
          Alcotest.test_case "type error" `Quick test_verify_catches_type_error;
          Alcotest.test_case "use before def" `Quick
            test_verify_catches_use_before_def;
          Alcotest.test_case "accepts good IR" `Quick test_verify_accepts_good;
        ] );
      ( "typing",
        [ Alcotest.test_case "of_func" `Quick test_typing ] );
      ( "callgraph",
        [
          Alcotest.test_case "basics" `Quick test_callgraph;
          Alcotest.test_case "tarjan sccs (two-function cycle)" `Quick
            test_sccs;
        ] );
      ( "printer",
        [ Alcotest.test_case "contains expected text" `Quick test_printer ] );
    ]
