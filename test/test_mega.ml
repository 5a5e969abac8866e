(* The mega subsystem: calendar ordering, the small-n congruence
   differential against the boxed Scheduler path, engine determinism
   and the sampled monitor. *)

open Afd_ioa
open Afd_core
module M = Afd_mega

(* {2 Calendar} *)

let pop_all cal =
  let acc = ref [] in
  while M.Calendar.pop cal do
    acc := (M.Calendar.now cal, M.Calendar.ev_a cal) :: !acc
  done;
  List.rev !acc

let calendar_fifo () =
  let cal = M.Calendar.create () in
  let sched at a = M.Calendar.schedule cal ~at ~kind:0 ~a ~b:0 ~c:0 ~d:0 in
  sched 5 1;
  sched 3 2;
  sched 5 3;
  sched 3 4;
  Alcotest.(check (list (pair int int)))
    "same-time events pop in creation order"
    [ (3, 2); (3, 4); (5, 1); (5, 3) ]
    (pop_all cal)

let calendar_horizon () =
  let cal = M.Calendar.create () in
  let sched at a = M.Calendar.schedule cal ~at ~kind:0 ~a ~b:0 ~c:0 ~d:0 in
  (* far beyond the 4096-tick wheel horizon: overflow-heap path *)
  sched 10_000 1;
  sched 5_000 2;
  sched 10_000 3;
  sched 10 4;
  Alcotest.(check int) "pending" 4 (M.Calendar.pending cal);
  Alcotest.(check bool) "pop" true (M.Calendar.pop cal);
  Alcotest.(check int) "near event first" 4 (M.Calendar.ev_a cal);
  (* an event scheduled mid-run lands in order *)
  sched 20 5;
  Alcotest.(check (list (pair int int)))
    "heap drains in (time, seq) order"
    [ (20, 5); (5_000, 2); (10_000, 1); (10_000, 3) ]
    (pop_all cal);
  Alcotest.(check int) "empty" 0 (M.Calendar.pending cal)

let calendar_immediate () =
  let cal = M.Calendar.create () in
  let sched at a = M.Calendar.schedule cal ~at ~kind:0 ~a ~b:0 ~c:0 ~d:0 in
  sched 7 1;
  Alcotest.(check bool) "pop" true (M.Calendar.pop cal);
  (* scheduling at (or before) [now] is clamped to [now] and still
     delivered, after everything already queued at [now] *)
  sched 7 2;
  sched 3 3;
  Alcotest.(check (list (pair int int))) "clamped to now" [ (7, 2); (7, 3) ] (pop_all cal)

(* Random schedule/pop interleavings on a small wheel (4 to 16 slots),
   so runs wrap the wheel, drain the overflow heap and refill buckets
   from spare arrays; the pop order must be that of a reference sorted
   on (time, seq).  An op is a pop, or a schedule at [now + delta]
   ([delta < 0] exercises the clamp to [now]). *)
let calendar_ops_gen =
  QCheck2.Gen.(
    pair (int_range 2 4)
      (list_size (int_bound 400)
         (oneof [ return None; map Option.some (int_range (-2) 40) ])))

let calendar_matches_reference (wheel_bits, ops) =
  let cal = M.Calendar.create ~wheel_bits () in
  (* reference: pending (time, seq) pairs and the last popped time *)
  let pending = ref [] and now = ref 0 and seq = ref 0 in
  let got = ref [] and want = ref [] in
  let pop () =
    (match List.sort compare !pending with
     | (at, s) :: rest ->
       pending := rest;
       now := at;
       want := (at, s) :: !want
     | [] -> ());
    if M.Calendar.pop cal then got := (M.Calendar.now cal, M.Calendar.ev_a cal) :: !got
  in
  List.iter
    (function
      | None -> pop ()
      | Some delta ->
        incr seq;
        let at = !now + delta in
        M.Calendar.schedule cal ~at ~kind:0 ~a:!seq ~b:0 ~c:0 ~d:0;
        pending := (max at !now, !seq) :: !pending)
    ops;
  while !pending <> [] do
    pop ()
  done;
  (not (M.Calendar.pop cal)) && M.Calendar.pending cal = 0 && !got = !want

let prop_calendar_reference =
  QCheck2.Test.make ~name:"calendar ≡ (time, seq)-sorted reference, wheel_bits 2–4" ~count:300
    calendar_ops_gen calendar_matches_reference

(* A fixed load of [per_tick] events a tick, each popped event
   rescheduled three ticks on, drained for [ticks] ticks: the storage
   the calendar retains must not depend on how many ticks ran. *)
let retained_after ~ticks =
  let per_tick = 50 in
  let cal = M.Calendar.create () in
  for at = 1 to 3 do
    for a = 1 to per_tick do
      M.Calendar.schedule cal ~at ~kind:0 ~a ~b:0 ~c:0 ~d:0
    done
  done;
  for _ = 1 to ticks * per_tick do
    assert (M.Calendar.pop cal);
    M.Calendar.schedule cal
      ~at:(M.Calendar.now cal + 3)
      ~kind:0 ~a:(M.Calendar.ev_a cal) ~b:0 ~c:0 ~d:0
  done;
  M.Calendar.retained_words cal

let calendar_retention () =
  Alcotest.(check int)
    "same retained words after 50 and 500 ticks" (retained_after ~ticks:50)
    (retained_after ~ticks:500)

(* {2 Congruence differential: mega ≡ Scheduler at small n} *)

let kinds_for n =
  let base =
    [ M.Compat.Perfect;
      M.Compat.Sigma;
      M.Compat.Omega;
      M.Compat.Anti_omega;
      M.Compat.Silent;
      M.Compat.Flip_flop;
    ]
  in
  let ks = List.init n (fun i -> i + 1) in
  base
  @ List.concat_map (fun k -> [ M.Compat.Omega_k k; M.Compat.Psi_k k ]) ks

let set_trace = Alcotest.testable (Fd_event.pp_trace Loc.pp_set) (List.equal (Fd_event.equal Loc.Set.equal))
let leader_trace = Alcotest.testable (Fd_event.pp_trace Loc.pp) (List.equal (Fd_event.equal Loc.equal))

let scenario_gen =
  QCheck2.Gen.(
    let n = map (fun i -> 1 + i) (int_bound 4) in
    let crash = pair (int_bound 320) (int_bound 8) in
    tup5 n (int_bound 1000) (int_bound 1_000_000) (int_bound 300)
      (list_size (int_bound 5) crash))

let differential_case (n, ksel, seed, steps, crash_raw) =
  let crash_at = List.map (fun (s, l) -> (s, l mod n)) crash_raw in
  let kinds = kinds_for n in
  let kind = List.nth kinds (ksel mod List.length kinds) in
  if M.Compat.leader_valued kind then begin
    let mega = M.Compat.run_leader kind ~n ~seed ~crash_at ~steps in
    let boxed = M.Compat.reference_leader kind ~n ~seed ~crash_at ~steps in
    List.equal (Fd_event.equal Loc.equal) mega.M.Compat.trace boxed
    && M.Compat.spec_verdict_leader kind ~n mega.M.Compat.trace
       = M.Compat.spec_verdict_leader kind ~n boxed
  end
  else begin
    let mega = M.Compat.run_set kind ~n ~seed ~crash_at ~steps in
    let boxed = M.Compat.reference_set kind ~n ~seed ~crash_at ~steps in
    List.equal (Fd_event.equal Loc.Set.equal) mega.M.Compat.trace boxed
    && M.Compat.spec_verdict_set kind ~n mega.M.Compat.trace
       = M.Compat.spec_verdict_set kind ~n boxed
  end

let prop_differential =
  QCheck2.Test.make
    ~name:"mega ≡ Scheduler: fired sequences and spec verdicts (160 cases)" ~count:160
    scenario_gen differential_case

(* a couple of pinned corners the generator might miss *)
let differential_pinned () =
  (* quiescence: everyone crashes *)
  let kind = M.Compat.Perfect in
  let crash_at = [ (0, 0); (0, 1); (1, 2) ] in
  let mega = M.Compat.run_set kind ~n:3 ~seed:42 ~crash_at ~steps:200 in
  let boxed = M.Compat.reference_set kind ~n:3 ~seed:42 ~crash_at ~steps:200 in
  Alcotest.check set_trace "all-crash trace" boxed mega.M.Compat.trace;
  Alcotest.(check bool) "quiescent after all crash" true mega.M.Compat.quiescent;
  (* silent detector: starvation backstop never fires for disabled tasks *)
  let mega = M.Compat.run_set M.Compat.Silent ~n:4 ~seed:7 ~crash_at:[ (50, 0) ] ~steps:250 in
  let boxed = M.Compat.reference_set M.Compat.Silent ~n:4 ~seed:7 ~crash_at:[ (50, 0) ] ~steps:250 in
  Alcotest.check set_trace "silent trace" boxed mega.M.Compat.trace;
  (* flip-flop: aux state beyond the crash mask *)
  let mega = M.Compat.run_leader M.Compat.Flip_flop ~n:5 ~seed:9 ~crash_at:[ (20, 3) ] ~steps:300 in
  let boxed =
    M.Compat.reference_leader M.Compat.Flip_flop ~n:5 ~seed:9 ~crash_at:[ (20, 3) ] ~steps:300
  in
  Alcotest.check leader_trace "flip-flop trace" boxed mega.M.Compat.trace;
  (* forced entry for an already-crashed location is dropped, and the
     policy picks in the same step *)
  let crash_at = [ (10, 1); (12, 1); (12, 2) ] in
  let mega = M.Compat.run_set M.Compat.Sigma ~n:3 ~seed:3 ~crash_at ~steps:150 in
  let boxed = M.Compat.reference_set M.Compat.Sigma ~n:3 ~seed:3 ~crash_at ~steps:150 in
  Alcotest.check set_trace "dropped-forced trace" boxed mega.M.Compat.trace

(* {2 Engine: determinism and detector behaviour} *)

let small_cfg ?(detector = "hb-pc") ?(topology = M.Topology.Ring 2) ?(seed = 11) () =
  M.Engine.cfg ~procs:300 ~events:20_000 ~churn_rate:10.0 ~topology ~detector ~seed ()

let engine_deterministic () =
  let r1 = M.Engine.run (small_cfg ()) in
  let r2 = M.Engine.run (small_cfg ()) in
  Alcotest.(check string)
    "byte-identical deterministic summary"
    (M.Engine.deterministic_summary r1)
    (M.Engine.deterministic_summary r2);
  let r3 = M.Engine.run (small_cfg ~seed:12 ()) in
  Alcotest.(check bool)
    "different seed, different run" false
    (M.Engine.deterministic_summary r1 = M.Engine.deterministic_summary r3)

let engine_detects detector topology () =
  let r = M.Engine.run (small_cfg ~detector ~topology ()) in
  Alcotest.(check bool) "some churn happened" true (r.M.Engine.crashes + r.M.Engine.leaves > 0);
  Alcotest.(check bool) "faults were detected" true (r.M.Engine.detections > 0);
  Alcotest.(check bool)
    ("monitor not violated: " ^ Fmt.str "%a" Verdict.pp r.M.Engine.monitor_verdict)
    true
    (match r.M.Engine.monitor_verdict with Verdict.Violated _ -> false | _ -> true);
  Alcotest.(check bool) "CN gate" true (M.Engine.ok r)

let engine_churnless () =
  (* no churn: nothing to detect, nothing falsely suspected for long —
     the monitor must come out clean *)
  let c =
    M.Engine.cfg ~procs:200 ~events:15_000 ~churn_rate:0.0 ~topology:M.Topology.Grid
      ~detector:"hb-pc" ~seed:5 ()
  in
  let r = M.Engine.run c in
  Alcotest.(check int) "no crashes" 0 r.M.Engine.crashes;
  Alcotest.(check int) "no detections" 0 r.M.Engine.detections;
  Alcotest.(check bool) "monitor ok" true (M.Engine.ok r)

let engine_join_interning () =
  let c =
    M.Engine.cfg ~procs:100 ~events:30_000 ~churn_rate:30.0 ~topology:(M.Topology.Ring 2)
      ~detector:"hb-pc" ~seed:21 ()
  in
  let r = M.Engine.run c in
  Alcotest.(check bool) "joins happened" true (r.M.Engine.joins > 0);
  Alcotest.(check int)
    "universe grew by the joins" (100 + r.M.Engine.joins)
    r.M.Engine.final_count

(* Pinned summaries: the calendar's bucket reuse, the per-process
   index of open false suspicions and the dense-id layout of [Univ]
   are bookkeeping, and must leave every draw of a run where it is. *)
let engine_pinned () =
  let summary c = M.Engine.deterministic_summary (M.Engine.run c) in
  (* a scaled-down long churn run: hundreds of crashes against tens of
     thousands of false suspicions *)
  Alcotest.(check string)
    "vcube / ring, many crashes and false suspicions"
    "vcube n0=2000 ev=160000 vt=76 live=1838/2103 churn=235/45/103/75 links=72/60 part=26/25 \
     msg=160547/669 det=64 lat=26/34/36 fs=31329 dur=1/2/2 mon=sat"
    (summary
       (M.Engine.cfg ~procs:2000 ~events:160_000 ~churn_rate:5.0 ~topology:(M.Topology.Ring 2)
          ~detector:"vcube" ~seed:3 ()));
  Alcotest.(check string)
    "hb-pc / ring, with joins"
    "hb-pc n0=300 ev=40000 vt=300 live=130/439 churn=343/153/139/119 links=120/110 part=28/27 \
     msg=32510/745 det=370 lat=20/38/42 fs=113 dur=3/24/29 mon=sat"
    (summary
       (M.Engine.cfg ~procs:300 ~events:40_000 ~churn_rate:30.0 ~topology:(M.Topology.Ring 2)
          ~detector:"hb-pc" ~seed:21 ()))

(* {2 Universe} *)

let univ_join () =
  let u = M.Univ.create ~cap:5 ~n:3 in
  Alcotest.(check (option int)) "initial ext is present" None (M.Univ.join u ~ext:2);
  Alcotest.(check (option int)) "initial ext 0 is present" None (M.Univ.join u ~ext:0);
  Alcotest.(check (option int)) "fresh joiner" (Some 3) (M.Univ.join u ~ext:77);
  Alcotest.(check (option int)) "repeated joiner" None (M.Univ.join u ~ext:77);
  Alcotest.(check (option int)) "second joiner" (Some 4) (M.Univ.join u ~ext:5);
  Alcotest.(check (option int)) "at capacity" None (M.Univ.join u ~ext:99);
  Alcotest.(check int) "count" 5 (M.Univ.count u);
  Alcotest.(check int) "live" 5 (M.Univ.live_count u);
  Alcotest.(check (list int)) "external ids" [ 0; 1; 2; 77; 5 ] (List.init 5 (M.Univ.ext_id u))

(* {2 Sampled monitor} *)

let sample_clean () =
  let s = M.Sample.create ~s:8 ~window:64 in
  M.Sample.crash s 2;
  M.Sample.susp s ~observer:1 ~target:2 ~suspected:true;
  (* transient false suspicion, corrected *)
  M.Sample.susp s ~observer:1 ~target:3 ~suspected:true;
  M.Sample.susp s ~observer:1 ~target:3 ~suspected:false;
  let v, clauses = M.Sample.finalize s ~final_dead:(fun q -> q = 2) ~completeness:true in
  Alcotest.(check bool) ("verdict sat: " ^ Fmt.str "%a" Verdict.pp v) true (Verdict.is_sat v);
  Alcotest.(check int) "three clauses" 3 (List.length clauses)

let sample_self_suspicion_violates () =
  let s = M.Sample.create ~s:4 ~window:64 in
  (* no detector does this; the monitor must catch it if one did *)
  M.Sample.susp s ~observer:2 ~target:2 ~suspected:true;
  let v, _ = M.Sample.finalize s ~final_dead:(fun _ -> false) ~completeness:false in
  (* self-suspicions are filtered at the matrix boundary, so this must
     be clean — the matrix never records (o, o) *)
  Alcotest.(check bool) "self pair ignored" true (Verdict.is_sat v)

let sample_window_eviction () =
  let s = M.Sample.create ~s:4 ~window:16 in
  M.Sample.crash s 1;
  M.Sample.susp s ~observer:0 ~target:1 ~suspected:true;
  (* push enough noise to evict the crash and the suspicion *)
  for _ = 1 to 40 do
    M.Sample.susp s ~observer:2 ~target:3 ~suspected:true;
    M.Sample.susp s ~observer:2 ~target:3 ~suspected:false
  done;
  let v, _ = M.Sample.finalize s ~final_dead:(fun q -> q = 1) ~completeness:false in
  Alcotest.(check bool)
    ("evicted state folds into the base snapshot: " ^ Fmt.str "%a" Verdict.pp v)
    true (Verdict.is_sat v)

let suite =
  [ Alcotest.test_case "calendar: same-time FIFO" `Quick calendar_fifo;
    Alcotest.test_case "calendar: wheel horizon and heap" `Quick calendar_horizon;
    Alcotest.test_case "calendar: clamped immediate events" `Quick calendar_immediate;
    QCheck_alcotest.to_alcotest prop_calendar_reference;
    Alcotest.test_case "calendar: retention independent of elapsed ticks" `Quick
      calendar_retention;
    QCheck_alcotest.to_alcotest prop_differential;
    Alcotest.test_case "differential: pinned corners" `Quick differential_pinned;
    Alcotest.test_case "engine: deterministic at fixed seed" `Quick engine_deterministic;
    Alcotest.test_case "engine: hb-pc detects churn (ring)" `Quick
      (engine_detects "hb-pc" (M.Topology.Ring 2));
    Alcotest.test_case "engine: vcube detects churn (hypercube)" `Quick
      (engine_detects "vcube" M.Topology.Hypercube);
    Alcotest.test_case "engine: churnless run is clean" `Quick engine_churnless;
    Alcotest.test_case "engine: joiners are interned and adopted" `Quick engine_join_interning;
    Alcotest.test_case "engine: summaries pinned (vcube churn, hb-pc joins)" `Quick engine_pinned;
    Alcotest.test_case "univ: join rejects present ids and full capacity" `Quick univ_join;
    Alcotest.test_case "sample: crash + suspicion is Sat" `Quick sample_clean;
    Alcotest.test_case "sample: self pairs filtered" `Quick sample_self_suspicion_violates;
    Alcotest.test_case "sample: window eviction keeps exactness" `Quick sample_window_eviction;
  ]
