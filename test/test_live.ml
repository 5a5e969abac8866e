(* Tests for the fairness-aware liveness analysis (lib/analysis/live.ml)
   and its consumers.

   The load-bearing properties: the Tarjan condensation classifies the
   canonical shapes correctly (a pure cycle is one cycle-capable SCC,
   a chain is all-singleton with a fair stop only at its end); the
   SCC-powered rules fire on their fixtures and stay silent on the
   harmless twin; every catalog probe pairs its state equality with a
   congruent hash (no silent single-bucket fallback); the two
   liveness-broken detectors are refuted with the right kind of lasso;
   and — the qcheck property — every lasso the model checker reports
   replays through the online monitor with the refuted clause still
   non-Sat after k > 1 unrollings of its cycle, across fault-pattern
   universes. *)

open Afd_ioa
open Afd_core
open Afd_analysis

(* [Live.t] is monomorphic, so the analysis of an existentially packed
   registry entry can escape the match. *)
let live_of_entry = function
  | Registry.Automaton (a, p) -> Live.analyze a (Space.explore a p)
  | Registry.Composition (c, p) ->
    let a = Composition.as_automaton c in
    Live.analyze a (Space.explore a p)
  | Registry.Spec _ -> Alcotest.fail "expected an automaton entry"

(* --- condensation on the canonical shapes --- *)

let test_condense_cycle () =
  (* the harmless spinner: two states, one fair task looping them *)
  let live = live_of_entry Fixtures.harmless_cycle in
  let cyclic =
    Array.to_list live.Live.sccs
    |> List.filter (fun s -> s.Live.internal <> [])
  in
  (match cyclic with
  | [ scc ] ->
    Alcotest.(check (list int)) "both states in the cycle SCC" [ 0; 1 ]
      scc.Live.members;
    Alcotest.(check (list string)) "no unmet obligation" [] scc.Live.unmet;
    Alcotest.(check (list int)) "spin is always enabled: no fair stop" []
      scc.Live.fair_stops
  | sccs -> Alcotest.failf "expected 1 cycle-capable SCC, got %d" (List.length sccs));
  Alcotest.(check bool) "fair cycle through state 0" true
    (Live.fair_cycle_through live 0);
  Alcotest.(check bool) "fair cycle through state 1" true
    (Live.fair_cycle_through live 1);
  Alcotest.(check bool) "state 0 is not a fair stop" false (Live.fair_stop_at live 0)

let test_condense_chain () =
  (* the well-formed counter 0->1->2->3: only task edges count, so the
     Reset back-edges (probed inputs) must not merge the chain *)
  let a = Fixtures.counter ~name:"chain" ~limit:3 in
  let p =
    Probe.make ~pp_action:Fmt.(any "<act>")
      [ Fixtures.Tick 1; Fixtures.Tick 2; Fixtures.Tick 3; Fixtures.Reset ]
  in
  let sp = Space.explore a p in
  Alcotest.(check bool) "chain exhausted" true (sp.Space.verdict = Space.Exhausted);
  let live = Live.analyze a sp in
  Alcotest.(check int) "four singleton SCCs" 4 (Array.length live.Live.sccs);
  Array.iter
    (fun scc ->
      Alcotest.(check (list int)) "no internal task edge" [] scc.Live.internal)
    live.Live.sccs;
  List.iter
    (fun si ->
      Alcotest.(check bool)
        (Printf.sprintf "no fair cycle through state %d" si)
        false
        (Live.fair_cycle_through live si))
    [ 0; 1; 2; 3 ];
  (* the tick task is enabled until the cap: only the last state (the
     counter at its limit, discovered last by BFS) is a fair stop *)
  List.iter
    (fun si ->
      Alcotest.(check bool)
        (Printf.sprintf "fair stop exactly at the cap (state %d)" si)
        (si = 3)
        (Live.fair_stop_at live si))
    [ 0; 1; 2; 3 ]

(* --- the SCC-powered rules, against fixture and harmless twin --- *)

let rule_findings id entry =
  let rules =
    match Rule.find (Rules.all @ Rules.mc) id with
    | Some r -> [ r ]
    | None -> Alcotest.failf "missing rule %s" id
  in
  let report = Engine.run_entry ~rules ~origin:"fixture" entry in
  List.filter (fun f -> String.equal f.Report.rule id) report.Report.findings

let test_livelock_rule () =
  (match Fixtures.find "livelock" with
  | None -> Alcotest.fail "missing livelock fixture"
  | Some entry ->
    Alcotest.(check bool) "livelock fires on the internal spinner" true
      (rule_findings "livelock" entry <> []));
  Alcotest.(check int) "livelock silent on the output spinner" 0
    (List.length (rule_findings "livelock" Fixtures.harmless_cycle))

let test_unsat_fairness_rule () =
  match Fixtures.find "unsatisfiable-fairness-obligation" with
  | None -> Alcotest.fail "missing unsat-fairness fixture"
  | Some entry ->
    (match rule_findings "unsatisfiable-fairness-obligation" entry with
    | [ f ] ->
      Alcotest.(check bool) "error severity" true (f.Report.severity = Report.Error);
      Alcotest.(check (option string)) "names the pinned task" (Some "pinned")
        f.Report.where.Report.task
    | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    Alcotest.(check int) "silent on the harmless spinner" 0
      (List.length
         (rule_findings "unsatisfiable-fairness-obligation" Fixtures.harmless_cycle))

let test_race_pair_dedup () =
  (* the jumpy fixture enables inc and dbl concurrently: symmetric
     dedup must report the unordered pair exactly once per state set,
     not once per ordering *)
  match Fixtures.find "race-pair" with
  | None -> Alcotest.fail "missing race-pair fixture"
  | Some entry ->
    let fs = rule_findings "race-pair" entry in
    Alcotest.(check int) "one finding for the one unordered pair" 1
      (List.length fs);
    List.iter
      (fun f ->
        Alcotest.(check (option string)) "keyed by the lexicographic task"
          (Some "dbl") f.Report.where.Report.task)
      fs

(* --- no catalog probe on the single-bucket fallback --- *)

let test_catalog_probes_hashed () =
  List.iter
    (fun { Registry.origin; entry } ->
      let check_probe name hashed =
        Alcotest.(check bool)
          (Printf.sprintf "%s(%s) pairs equal_state with a hash" name origin)
          true hashed
      in
      match entry with
      | Registry.Automaton (a, p) ->
        check_probe a.Automaton.name (p.Probe.hash_state <> None)
      | Registry.Composition (c, p) ->
        check_probe (Composition.name c) (p.Probe.hash_state <> None)
      | Registry.Spec _ -> ())
    (Catalog.items ())

(* Having a hash is not enough: one that stops early (plain
   [Hashtbl.hash] reads 10 words) sends every state sharing a long
   prefix to one bucket, and the seen-set goes quadratic anyway.
   Explore every catalog subject the way the lint does, at a budget
   where the large ones fill it, and bound the largest bucket. *)
let max_bucket = 16

let test_catalog_buckets_bounded () =
  let oversized =
    List.filter_map
      (fun { Registry.origin; entry } ->
        match (Subject.make ~max_states:4000 ~origin entry).Subject.packed with
        | None -> None
        | Some (Subject.P { aut; probe; space; _ }) ->
          let hash = Probe.seen_hash probe in
          let sizes = Hashtbl.create 64 in
          Array.iter
            (fun s ->
              let h = hash s in
              Hashtbl.replace sizes h
                (1 + Option.value ~default:0 (Hashtbl.find_opt sizes h)))
            (Lazy.force space).Space.states;
          let largest = Hashtbl.fold (fun _ c m -> max c m) sizes 0 in
          if largest > max_bucket then
            Some (Printf.sprintf "%s(%s): %d" aut.Automaton.name origin largest)
          else None)
      (Catalog.items ())
  in
  Alcotest.(check (list string))
    (Printf.sprintf "subjects with a seen-set bucket over %d states" max_bucket)
    [] oversized

(* [Probe.structural_hash] is a congruence for [Probe.structural]:
   rebuild a random value cell by cell (no sharing with the original),
   swapping each float for an equal-under-compare twin (±0.0, another
   NaN payload), and the hash must not move. *)
type tree = Int of int | Flt of float | Str of string | Node of tree list

let rec rebuild = function
  | Int i -> Int i
  | Flt f when Float.is_nan f -> Flt (Int64.float_of_bits 0x7FF8_0000_0000_0F00L)
  | Flt f when f = 0.0 -> Flt (if 1.0 /. f > 0.0 then -0.0 else 0.0)
  | Flt f -> Flt (Float.of_string (Float.to_string f))
  | Str s -> Str (String.init (String.length s) (String.get s))
  | Node l -> Node (List.map rebuild l)

let tree_gen =
  QCheck2.Gen.(
    sized_size (int_bound 6)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [ map (fun i -> Int i) small_signed_int;
                 map (fun f -> Flt f) (oneofl [ 0.0; -0.0; Float.nan; 1.5; -2.25 ]);
                 map (fun s -> Str s) (string_size ~gen:printable (int_bound 4));
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [ (1, leaf); (3, map (fun l -> Node l) (list_size (int_bound 5) (self (n - 1)))) ]))

let structural_hash_congruent_prop =
  QCheck2.Test.make ~count:300 ~name:"structural_hash: structurally equal values hash equal"
    tree_gen (fun t ->
      let t' = rebuild t in
      Probe.structural t t' && Probe.structural_hash t = Probe.structural_hash t')

(* A flat state of [k >= 10] leading fields and one trailing field: the
   10-word default never reaches the trailing field, the named hash
   must. *)
let structural_hash_deep_prop =
  let gen =
    QCheck2.Gen.(
      triple (array_size (int_range 10 200) small_signed_int) small_signed_int small_signed_int)
  in
  QCheck2.Test.make ~count:300 ~name:"structural_hash: a field past the 10th word counts" gen
    (fun (prefix, x, y) ->
      QCheck2.assume (x <> y);
      let a = Array.append prefix [| x |] and b = Array.append prefix [| y |] in
      Hashtbl.hash a = Hashtbl.hash b
      && Probe.structural_hash a <> Probe.structural_hash b)

(* --- lasso refutations, directly through Mc --- *)

let test_refutation_kinds () =
  let n = 3 in
  (match
     Mc.check_spec ~n Omega.spec ~detector:(Afd_automata.fd_flip_flop ~n)
   with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "flipflop: safety still holds" true o.Mc.safety_proved;
    Alcotest.(check bool) "flipflop: not proved" false o.Mc.proved;
    (match o.Mc.lassos with
    | [ l ] ->
      Alcotest.(check bool) "flipflop: a fair cycle" true (l.Mc.l_kind = `Cycle);
      Alcotest.(check string) "flipflop: stable-leader" "stable-leader" l.Mc.l_clause;
      Alcotest.(check bool) "flipflop: confirmed" true l.Mc.l_confirmed
    | ls -> Alcotest.failf "flipflop: expected 1 lasso, got %d" (List.length ls)));
  match Mc.check_spec ~n Perfect.spec ~detector:(Afd_automata.fd_silent ~n) with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "silent: lassos found" true (o.Mc.lassos <> []);
    List.iter
      (fun l ->
        Alcotest.(check bool)
          (l.Mc.l_clause ^ ": a fair stop with an empty cycle")
          true
          (l.Mc.l_kind = `Stop && l.Mc.l_cycle = []))
      o.Mc.lassos

(* --- qcheck: lassos replay with the violation latched --- *)

(* Replay stem + k unrollings of each reported lasso through a fresh
   online monitor and demand the refuted clause's verdict stays
   non-Sat: the lasso is a real infinite counterexample, not an
   artifact of the product construction.  [k] ranges over 2..4 — the
   checker itself only confirms k = 1..3. *)
let lassos_latch spec detector ~crashable ~k =
  let n = 3 in
  match Mc.check_spec ~crashable ~n spec ~detector with
  | Error e -> QCheck2.Test.fail_reportf "check_spec: %s" e
  | Ok o ->
    List.for_all
      (fun l ->
        let m =
          match Afd.monitor spec ~n with
          | Some m -> m
          | None -> QCheck2.Test.fail_reportf "raw spec"
        in
        List.iter (Afd_prop.Monitor.observe m) l.Mc.l_stem;
        let unroll = if l.Mc.l_cycle = [] then 0 else k in
        for _ = 1 to unroll do
          List.iter (Afd_prop.Monitor.observe m) l.Mc.l_cycle
        done;
        match List.assoc_opt l.Mc.l_clause (Afd_prop.Monitor.clause_verdicts m) with
        | Some (Verdict.Violated _ | Verdict.Undecided _) -> true
        | Some Verdict.Sat | None -> false)
      o.Mc.lassos

let lasso_replay_prop =
  let gen = QCheck2.Gen.(triple bool (int_bound 7) (int_range 2 4)) in
  let print (ff, mask, k) =
    Printf.sprintf "subject=%s crashable-mask=%d k=%d"
      (if ff then "flipflop/Omega" else "silent/P")
      mask k
  in
  QCheck2.Test.make ~count:24 ~name:"every lasso replays: clause non-Sat after k>1 unrollings"
    ~print gen
    (fun (use_flipflop, mask, k) ->
      let crashable =
        List.fold_left
          (fun acc i -> if mask land (1 lsl i) <> 0 then Loc.Set.add i acc else acc)
          Loc.Set.empty [ 0; 1; 2 ]
      in
      if use_flipflop then
        lassos_latch Omega.spec (Afd_automata.fd_flip_flop ~n:3) ~crashable ~k
      else lassos_latch Perfect.spec (Afd_automata.fd_silent ~n:3) ~crashable ~k)

let suite =
  [ Alcotest.test_case "condensation: a fair cycle is one SCC" `Quick
      test_condense_cycle;
    Alcotest.test_case "condensation: a chain is singletons + fair stop" `Quick
      test_condense_chain;
    Alcotest.test_case "livelock rule: fires on internal, silent on output" `Quick
      test_livelock_rule;
    Alcotest.test_case "unsat-fairness rule: fires on the pinned spinner" `Quick
      test_unsat_fairness_rule;
    Alcotest.test_case "race-pair: symmetric pairs deduplicated" `Quick
      test_race_pair_dedup;
    Alcotest.test_case "catalog probes: no single-bucket fallback" `Quick
      test_catalog_probes_hashed;
    Alcotest.test_case "catalog probes: no seen-set bucket over 16 states" `Quick
      test_catalog_buckets_bounded;
    QCheck_alcotest.to_alcotest structural_hash_congruent_prop;
    QCheck_alcotest.to_alcotest structural_hash_deep_prop;
    Alcotest.test_case "Mc refutes flipflop with a cycle, silent with a stop" `Quick
      test_refutation_kinds;
    QCheck_alcotest.to_alcotest lasso_replay_prop;
  ]
