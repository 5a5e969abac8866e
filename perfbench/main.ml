(* The benchmark program.  Each invocation runs one workload's
   repetitions (or, for the churn workloads, one repetition: every churn
   repetition gets a fresh process) and prints one JSON object a line on
   stdout.  perfbench/run.py builds it, drives it and aggregates the
   lines; see perfbench/README.md for the workloads and metrics. *)

open Afd_analysis
module Check = Afd_bench.Check
module Engine_mega = Afd_mega.Engine

let max_states = 4000

(* --- JSON output --- *)

let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c > 0x7e ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jnum f = if Float.is_integer f then Printf.sprintf "%.1f" f else Printf.sprintf "%.17g" f
let jobj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields) ^ "}"
let jnums l = jobj (List.map (fun (k, v) -> (k, jnum v)) l)
let jints l = jobj (List.map (fun (k, v) -> (k, string_of_int v)) l)
let emit fields = print_endline (jobj fields)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

let peak_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.0

(* --- correctness gates --- *)

(* A repetition passes when every gate holds; [fails] names the ones
   that did not. *)
type outcome = { fails : string list; counters : (string * int) list }

let gate cond msg fails = if cond then fails else msg :: fails

let gate_pins pins counters fails =
  List.fold_left
    (fun fails (k, want) ->
      match List.assoc_opt k counters with
      | Some got when got = want -> fails
      | got ->
        Printf.sprintf "%s = %s, pinned %d" k
          (match got with Some g -> string_of_int g | None -> "missing")
          want
        :: fails)
    fails pins

let digest s = Digest.to_hex (Digest.string s)
let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* --- verify: the catalog lint pass plus the 14-subject model check --- *)

let lint_rules = Rules.all @ Rules.mc
let mc_subjects = Check.subjects @ Check.liveness_subjects

(* [mc_json] with the profile field a profiled run appends taken out, so
   profiled and plain rows share one pinned digest *)
let unprofiled json =
  let marker = ",\"profile\":{" in
  let n = String.length json and m = String.length marker in
  let rec find i =
    if i + m > n then json
    else if String.sub json i m = marker then String.sub json 0 i ^ "}"
    else find (i + 1)
  in
  find 0

let verify_outcome (report : Report.t) (mc : Check.mc_result list) =
  let ex = report.Report.explorations in
  let counters =
    [ ("lint.explorations", List.length ex);
      ("lint.states", sum (fun e -> e.Report.states) ex);
      ("lint.transitions", sum (fun e -> e.Report.transitions) ex);
      ("mc.rows", List.length mc);
      ("mc.states", sum (fun r -> r.Check.mc_states) mc);
      ("mc.transitions", sum (fun r -> r.Check.mc_transitions) mc);
      ("mc.violations", sum (fun r -> List.length r.Check.mc_violations) mc);
      ("mc.lassos", sum (fun r -> List.length r.Check.mc_lassos) mc);
    ]
  in
  let lint_digest = digest (Report.to_json report) in
  let mc_digest = digest (String.concat "\n" (List.map (fun r -> unprofiled r.Check.mc_json) mc)) in
  let fails =
    []
    |> gate (Report.errors report = []) "lint reported error findings"
    |> gate (lint_digest = Pins.lint_report) ("lint report digest " ^ lint_digest)
    |> gate (List.for_all (fun r -> r.Check.mc_ok) mc) "an MC row is not mc_ok"
    |> gate (mc_digest = Pins.mc_json) ("mc_json digest " ^ mc_digest)
    |> gate_pins Pins.verify_counters counters
  in
  { fails; counters }

let verify_plain items =
  let report = Engine.run ~rules:lint_rules ~max_states items in
  verify_outcome report (Check.mc_all ~max_states ())

(* The same calls as [verify_plain], opened up so each one into a layer
   gets a span: [Engine.run]'s subject loop with each shared
   exploration and SCC analysis forced before the rules read them, and
   [Check.mc_all]'s rows profiled one by one.  The pinned digests prove
   the outputs identical. *)
let verify_traced items =
  let report =
    Trace.span "lint.run" (fun () ->
        let subjects =
          List.map
            (fun { Registry.origin; entry } -> Subject.make ~max_states ~origin entry)
            items
        in
        let findings =
          List.concat_map
            (fun (subj : Subject.t) ->
              let arg = subj.Subject.name in
              (match subj.Subject.packed with
              | Some (Subject.P p) ->
                Trace.span ~arg "lint.explore" (fun () -> ignore (Lazy.force p.space));
                Trace.span ~arg "lint.live" (fun () -> ignore (Lazy.force p.live))
              | None -> ());
              List.concat_map
                (fun r -> Trace.span ~arg ("lint.rule." ^ r.Rule.id) (fun () -> r.Rule.check subj))
                lint_rules)
            subjects
        in
        Report.make ~rules_run:(List.length lint_rules) ~subjects_checked:(List.length items)
          ~explorations:(List.filter_map Subject.exploration subjects)
          findings)
  in
  let mc =
    Trace.span "mc.all" (fun () ->
        List.filter_map
          (fun subj ->
            Trace.span ~arg:(Check.id subj) "mc.subject" (fun () ->
                match Check.mc_subject ~max_states ~profile:true subj with
                | Ok r ->
                  List.iter (fun (k, dt) -> Trace.add ("mc." ^ k ^ "_s") dt) r.Check.mc_profile;
                  Some r
                | Error _ -> None))
          mc_subjects)
  in
  let o = verify_outcome report mc in
  let confirmed =
    sum
      (fun r ->
        List.length (List.filter (fun v -> v.Check.confirmed) r.Check.mc_violations)
        + List.length (List.filter (fun l -> l.Check.lconfirmed) r.Check.mc_lassos))
      mc
  in
  let claims = List.assoc "mc.violations" o.counters + List.assoc "mc.lassos" o.counters in
  let explore_s = Trace.total "lint.explore" in
  let lint_states = float_of_int (List.assoc "lint.states" o.counters) in
  let layers =
    [ ("lint.explore_s", explore_s);
      ("lint.live_s", Trace.total "lint.live");
      ("lint.rules_s", Trace.total_prefix "lint.rule.");
      ("lint.states", lint_states);
      ("lint.transitions", float_of_int (List.assoc "lint.transitions" o.counters));
      ("lint.states_per_s", lint_states /. explore_s);
      ("lint.kset_p0_s", Trace.total ~arg:"kset_p0" "lint.explore");
      ("lint.synod_p0_s", Trace.total ~arg:"synod_p0" "lint.explore");
      ("lint.race_pair_s", Trace.total "lint.rule.race-pair");
      ("mc.explore_s", Trace.counter "mc.explore_s");
      ("mc.clause_eval_s", Trace.counter "mc.clause_eval_s");
      ("mc.lasso_s", Trace.counter "mc.lasso_s");
      ("mc.states", float_of_int (List.assoc "mc.states" o.counters));
      ("mc.transitions", float_of_int (List.assoc "mc.transitions" o.counters));
      ("mc.confirmed_frac", if claims = 0 then 0.0 else float confirmed /. float claims);
    ]
  in
  (o, layers)

(* [Space.explore] called directly on the two subjects that dominate
   the lint pass, at the same budget *)
let space_probe items =
  let states = ref 0 and secs = ref 0.0 in
  List.iter
    (fun { Registry.origin; entry } ->
      let name = Registry.entry_name entry in
      if name = "kset_p0" || name = "synod_p0" then
        match (Subject.make ~max_states ~origin entry).Subject.packed with
        | Some (Subject.P p) ->
          let dt, sp = time (fun () -> Space.explore p.aut p.probe) in
          states := !states + Array.length sp.Space.states;
          secs := !secs +. dt
        | None -> ())
    items;
  [ ("space.states_per_s", float_of_int !states /. !secs) ]

(* --- cutoff: orbit-quotiented re-verification and the cutoff ladder --- *)

let cutoff_outcome (rows : Check.sy_result list) =
  let status s = List.length (List.filter (fun r -> r.Check.sy_status = s) rows) in
  let certified = List.filter (fun r -> r.Check.sy_status = "certified") rows in
  let cert_checks = function
    | Mc.Sym_quotient c -> c.Symm.c_states * c.Symm.c_perms
    | Mc.Sym_off | Mc.Sym_breaking _ | Mc.Sym_fallback _ -> 0
  in
  let perm_checks r =
    Scanf.sscanf r.Check.sy_detail "%d reps x %d perms" (fun a b -> a * b)
    + match r.Check.sy_parametric with Some p -> cert_checks p.Mc.par_sym | None -> 0
  in
  let counters =
    [ ("symm.rows", List.length rows);
      ("symm.certified", List.length certified);
      ("symm.breaking", status "breaking");
      ("symm.states", sum (fun r -> r.Check.sy_states) rows);
      ("symm.raw_states", sum (fun r -> r.Check.sy_raw_states) rows);
      ("symm.perm_checks", sum perm_checks certified);
      ( "symm.ladder_points",
        sum
          (fun r ->
            match r.Check.sy_parametric with
            | Some p -> List.length p.Mc.par_points
            | None -> 0)
          rows );
    ]
  in
  let json = String.concat "\n" (List.map (fun r -> r.Check.sy_json) rows) in
  let fails =
    []
    |> gate (List.for_all (fun r -> r.Check.sy_ok) rows) "a symmetry row is not sy_ok"
    |> gate (digest json = Pins.sy_json) ("sy_json digest " ^ digest json)
    |> gate_pins Pins.cutoff_counters counters
  in
  { fails; counters }

let cutoff_plain () = cutoff_outcome (Check.sy_all ~max_states ())

(* [Check.sy_subject] opened up: the unreduced model check, the
   symmetry-requested one (whose "symmetry" phase is the [Symm.analyze]
   sweep) and the [Mc.parametric] ladder each get a span.  The rows are
   rebuilt exactly as [sy_subject] builds them; the pinned [sy_json]
   digest proves it. *)
let sy_traced (Check.S s) =
  let arg = s.id in
  let row status detail states raw agree par ok =
    let q x = "\"" ^ String.escaped x ^ "\"" in
    { Check.sy_id = s.id;
      sy_label = s.label;
      sy_status = status;
      sy_detail = detail;
      sy_states = states;
      sy_raw_states = raw;
      sy_agree = agree;
      sy_parametric = par;
      sy_ok = ok;
      sy_json =
        Printf.sprintf
          "{\"id\": %s, \"status\": %s, \"detail\": %s, \"states\": %d, \"raw_states\": %d, \
           \"agree\": %b, \"ok\": %b, \"parametric\": %s}"
          (q s.id) (q status) (q detail) states raw agree ok
          (match par with None -> "null" | Some p -> Mc.parametric_to_json p);
    }
  in
  match s.symm with
  | None -> None
  | Some kit -> (
    let detector = s.detector s.n in
    let raw =
      Trace.span ~arg "symm.raw" (fun () -> Mc.check_spec ~max_states ~n:s.n s.spec ~detector)
    in
    let timings = ref [] in
    let sym =
      Trace.span ~arg "symm.quotient" (fun () ->
          Mc.check_spec ~max_states ~timings ~symmetry:kit ~n:s.n s.spec ~detector)
    in
    List.iter (fun (k, dt) -> Trace.add ("symm.quotient." ^ k ^ "_s") dt) !timings;
    match (raw, sym) with
    | Error _, _ | _, Error _ -> None
    | Ok raw, Ok sym ->
      let key v = (v.Mc.clause, v.Mc.confirmed) in
      let keys o = List.sort compare (List.map key o.Mc.violations) in
      let agree = raw.Mc.safety_proved = sym.Mc.safety_proved && keys raw = keys sym in
      let status, detail =
        match sym.Mc.sym with
        | Mc.Sym_off -> ("off", "")
        | Mc.Sym_quotient c ->
          ("certified", Printf.sprintf "%d reps x %d perms" c.Symm.c_states c.Symm.c_perms)
        | Mc.Sym_breaking w -> ("breaking", Fmt.str "%a" Symm.pp_witness w)
        | Mc.Sym_fallback r -> ("fallback", r)
      in
      let par =
        match sym.Mc.sym with
        | Mc.Sym_quotient _ ->
          Some
            (Trace.span ~arg "symm.ladder" (fun () ->
                 Mc.parametric ~max_states ~symmetry:kit s.spec ~detector:s.detector))
        | Mc.Sym_off | Mc.Sym_breaking _ | Mc.Sym_fallback _ -> None
      in
      let par_ok =
        match par with
        | None -> true
        | Some p -> (
          match p.Mc.par_verdict with
          | Mc.Refuted_at _ -> s.expect_violated
          | Mc.Cutoff_candidate _ | Mc.Proved_upto _ -> not s.expect_violated
          | Mc.Unverified _ -> false)
      in
      let exhaustive o = o.Mc.verdict = Space.Exhausted in
      let ok = agree && exhaustive raw && exhaustive sym && par_ok in
      Some (row status detail sym.Mc.states raw.Mc.states agree par ok))

let cutoff_traced () =
  let rows =
    List.filter_map
      (fun subj -> Trace.span ~arg:(Check.id subj) "symm.subject" (fun () -> sy_traced subj))
      mc_subjects
  in
  let o = cutoff_outcome rows in
  let c k = float_of_int (List.assoc k o.counters) in
  let layers =
    [ ("symm.analyze_s", Trace.counter "symm.quotient.symmetry_s");
      ("symm.ladder_s", Trace.total "symm.ladder");
      ("symm.perm_checks", c "symm.perm_checks");
      ("symm.quotient_ratio", c "symm.states" /. c "symm.raw_states");
      ("symm.certified", c "symm.certified");
    ]
  in
  (o, layers)

(* Set-up of the in-process workloads: building the inputs the
   repetitions run on.  One call takes microseconds, so it is repeated
   until the reading spans at least [setup_window] seconds; the result
   is the time per call. *)
let setup_window = 0.05

let per_call f =
  let t0 = Unix.gettimeofday () in
  let calls = ref 0 in
  while Unix.gettimeofday () -. t0 < setup_window do
    f ();
    incr calls
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int !calls

let verify_setup () = per_call (fun () -> ignore (Sys.opaque_identity (Catalog.items ())))

let cutoff_setup () =
  per_call (fun () ->
      List.iter (fun (Check.S s) -> ignore (Sys.opaque_identity (s.detector s.n))) mc_subjects)

(* --- churn: one Engine.run per process --- *)

let churn_size = function
  | "churn-1m" -> Some (1_000_000, 10_000_000)
  | "churn-long" -> Some (10_000, 800_000)
  | _ -> None

let churn_rep ~workload ~procs ~events ~budget ~seed =
  let cfg = Engine_mega.cfg ~procs ~events ~seed () in
  let wall, r = time (fun () -> Trace.span ~arg:budget "mega.run" (fun () -> Engine_mega.run cfg)) in
  let summary = Engine_mega.deterministic_summary r in
  let counters =
    [ ("mega.processed", r.Engine_mega.processed);
      ("mega.sends", r.Engine_mega.sends);
      ("mega.drops", r.Engine_mega.drops);
      ("mega.crashes", r.Engine_mega.crashes);
      ("mega.detections", r.Engine_mega.detections);
      ("mega.false_suspicions", r.Engine_mega.false_suspicions);
    ]
  in
  let fails =
    []
    |> gate (Engine_mega.ok r) "Engine.ok is false"
    |> gate (r.Engine_mega.processed = events) "the event budget was not used up"
    |> fun fails ->
    if budget <> "full" then fails
    else
      match Pins.churn_summary workload seed with
      | Some pinned -> gate (summary = pinned) ("summary " ^ summary) fails
      | None -> Printf.sprintf "no pinned summary for seed %d" seed :: fails
  in
  let cfg_json =
    jobj
      [ ("procs", string_of_int cfg.procs);
        ("events", string_of_int cfg.events);
        ("churn_rate", jnum cfg.churn_rate);
        ("topology", jstr (Afd_mega.Topology.to_string cfg.topology));
        ("detector", jstr cfg.detector);
        ("seed", string_of_int cfg.seed);
        ("sample", string_of_int cfg.sample);
      ]
  in
  ( wall,
    { fails; counters },
    summary,
    float_of_int (r.Engine_mega.peak_words * 8) /. 1048576.0,
    cfg_json )

(* [Calendar] on its own, holding [occupancy] pending events: each
   operation pops the earliest and schedules one a timer period or a
   message delay later, as the engine's timers and sends do *)
let calendar_ns ~occupancy ~ops =
  let cal = Afd_mega.Calendar.create () in
  let rng = Random.State.make [| occupancy |] in
  for i = 0 to occupancy - 1 do
    Afd_mega.Calendar.schedule cal ~at:(1 + Random.State.int rng 8) ~kind:0 ~a:i ~b:0 ~c:0 ~d:0
  done;
  let delays = Array.init 4096 (fun _ -> 1 + Random.State.int rng 8) in
  let dt, () =
    time (fun () ->
        for i = 1 to ops do
          ignore (Afd_mega.Calendar.pop cal);
          Afd_mega.Calendar.schedule cal
            ~at:(Afd_mega.Calendar.now cal + delays.(i land 4095))
            ~kind:0 ~a:(Afd_mega.Calendar.ev_a cal) ~b:0 ~c:0 ~d:0
        done)
  in
  dt *. 1e9 /. float_of_int ops

(* [Sample.susp] on pairs inside the sample, as the engine's default
   32-process sample and 4096-event window see them *)
let sample_ns ~ops =
  let s = 32 in
  let sample = Afd_mega.Sample.create ~s ~window:4096 in
  let rng = Random.State.make [| s |] in
  let pairs = Array.init 4096 (fun _ -> (Random.State.int rng s, Random.State.int rng s)) in
  let dt, () =
    time (fun () ->
        for i = 1 to ops do
          let observer, target = pairs.(i land 4095) in
          Afd_mega.Sample.susp sample ~observer ~target
            ~suspected:(not (Afd_mega.Sample.suspected sample ~observer ~target))
        done)
  in
  dt *. 1e9 /. float_of_int ops

(* --- command line --- *)

let usage () =
  prerr_endline
    "usage: main.exe (verify|cutoff) --seconds S --min-reps N --trace 0|1\n\
    \       main.exe (churn-1m|churn-long) --seed E --budget full|quarter|setup --trace 0|1\n\
    \       main.exe layers (churn-1m|churn-long)";
  exit 2

let flag name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go (Array.to_list Sys.argv)

let int_flag name = match flag name with Some v -> int_of_string v | None -> usage ()

let rep_line ~workload ~traced ~wall o extra =
  emit
    ([ ("kind", jstr "rep");
       ("workload", jstr workload);
       ("traced", string_of_bool traced);
       ("wall_s", jnum wall);
       ("ok", string_of_bool (o.fails = []));
       ("fails", "[" ^ String.concat ", " (List.map jstr o.fails) ^ "]");
       ("counters", jints o.counters);
       ("ocaml", jstr Sys.ocaml_version);
     ]
    @ extra)

(* The in-process workloads: repeat until [seconds] have passed and at
   least [min_reps] repetitions ran, each after a set-up reading, both
   from a [Gc.compact]ed heap.  Traced runs pair every plain repetition
   with a traced one, alternating which goes first, so the two walls
   compare under the same host load. *)
let in_process workload =
  let seconds = float_of_int (int_flag "--seconds") and min_reps = int_flag "--min-reps" in
  let traced = int_flag "--trace" = 1 in
  let setup, plain, trace_rep, probe =
    match workload with
    | "verify" ->
      let items = ref [] in
      ( (fun () ->
          let dt = verify_setup () in
          items := Catalog.items ();
          dt),
        (fun () -> verify_plain !items),
        (fun () -> verify_traced !items),
        fun () -> space_probe !items )
    | _ -> (cutoff_setup, cutoff_plain, cutoff_traced, fun () -> [])
  in
  let plain_rep () =
    Gc.compact ();
    let wall, o = time plain in
    rep_line ~workload ~traced:false ~wall o []
  in
  let traced_rep () =
    Gc.compact ();
    Trace.reset ();
    Trace.set_enabled true;
    let wall, (o, layers) = time trace_rep in
    Trace.set_enabled false;
    let top = Trace.top_level () and self = Trace.self_by_layer () in
    Trace.write (Printf.sprintf ".perfbench/spans-%s.jsonl" workload);
    rep_line ~workload ~traced:true ~wall o
      [ ("top_s", jnum top); ("self", jnums self); ("layers", jnums layers) ]
  in
  let t_start = Unix.gettimeofday () in
  let reps = ref 0 in
  (* stop before an iteration that would overrun [seconds] *)
  let room () =
    let elapsed = Unix.gettimeofday () -. t_start in
    !reps = 0 || elapsed +. (elapsed /. float_of_int !reps) <= seconds
  in
  while !reps < min_reps || room () do
    Gc.compact ();
    emit [ ("kind", jstr "setup"); ("setup_s", jnum (setup ())) ];
    if not traced then plain_rep ()
    else if !reps mod 2 = 0 then (plain_rep (); traced_rep ())
    else (traced_rep (); plain_rep ());
    incr reps
  done;
  if traced then emit [ ("kind", jstr "probe"); ("layers", jnums (probe ())) ];
  emit [ ("kind", jstr "end"); ("peak_heap_mb", jnum (peak_heap_mb ())) ]

let churn workload (procs, full) =
  let seed = int_flag "--seed" in
  let budget = Option.value ~default:"full" (flag "--budget") in
  let events =
    match budget with "full" -> full | "quarter" -> full / 4 | "setup" -> 0 | _ -> usage ()
  in
  let traced = int_flag "--trace" = 1 in
  Trace.set_enabled traced;
  let wall, o, summary, heap, cfg = churn_rep ~workload ~procs ~events ~budget ~seed in
  if traced then
    Trace.write (Printf.sprintf ".perfbench/spans-%s-%s-%d.jsonl" workload budget seed);
  rep_line ~workload ~traced ~wall o
    [ ("budget", jstr budget);
      ("cfg", cfg);
      ("seed", string_of_int seed);
      ("summary", jstr summary);
      ("peak_heap_mb", jnum heap);
      ("top_s", jnum (Trace.top_level ()));
    ]

let layers workload (procs, _) =
  emit
    [ ("kind", jstr "layers");
      ( "layers",
        jnums
          [ ("calendar.ns_per_op", calendar_ns ~occupancy:procs ~ops:4_000_000);
            ("sample.ns_per_op", sample_ns ~ops:2_000_000);
          ] );
      ("workload", jstr workload);
    ]

let () =
  if Array.length Sys.argv < 2 then usage ();
  (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
  match Sys.argv.(1) with
  | ("verify" | "cutoff") as w -> in_process w
  | "layers" -> (
    match churn_size (if Array.length Sys.argv > 2 then Sys.argv.(2) else "") with
    | Some size -> layers Sys.argv.(2) size
    | None -> usage ())
  | w -> ( match churn_size w with Some size -> churn w size | None -> usage ())
