(* Pinned outputs and work counters.  Every repetition must reproduce
   them exactly; a change that legitimately alters one of them (fewer
   explored states, a different verdict text) re-pins it in a change of
   its own. *)

(* digest of [Report.to_json] of the lint pass *)
let lint_report = "a0fdad6a88c5b0df0c5c5ad369280cd1"

(* digest of the 14 [mc_json] rows, newline-joined, without a profile *)
let mc_json = "a0dc99687ffe437e0ead22874ef36134"

let verify_counters =
  [ ("lint.explorations", 29);
    ("lint.states", 40388);
    ("lint.transitions", 167141);
    ("mc.rows", 14);
    ("mc.states", 21747);
    ("mc.transitions", 41874);
    ("mc.violations", 2);
    ("mc.lassos", 3);
  ]

(* digest of the 14 [sy_json] rows, newline-joined *)
let sy_json = "a6997978a4b87a603fad137b2db34ca9"

let cutoff_counters =
  [ ("symm.rows", 14);
    ("symm.certified", 5);
    ("symm.breaking", 9);
    ("symm.states", 7944);
    ("symm.raw_states", 21747);
    ("symm.perm_checks", 54936);
    ("symm.ladder_points", 17);
  ]

(* [Engine.deterministic_summary] at the full budget, per engine seed *)
let churn_summary workload seed =
  match (workload, seed) with
  | "churn-1m", 3 ->
    Some
      "vcube n0=1000000 ev=10000000 vt=30 live=988006/1007555 churn=14947/421/7555/5023 \
       links=4011/4008 part=1554/1554 msg=7222330/1274 det=1835 lat=24/28/29 fs=1975 \
       dur=1/1/1 mon=sat"
  | "churn-1m", 4 ->
    Some
      "vcube n0=1000000 ev=10000000 vt=30 live=987657/1007279 churn=15088/435/7279/4969 \
       links=3920/3906 part=1542/1541 msg=7241976/1194 det=1847 lat=24/27/29 fs=2741 \
       dur=0/0/0 mon=sat"
  | "churn-1m", 5 ->
    Some
      "vcube n0=1000000 ev=10000000 vt=30 live=988096/1007598 churn=14820/384/7598/5066 \
       links=3941/3933 part=1483/1482 msg=7207539/1274 det=1796 lat=24/28/29 fs=1883 \
       dur=1/1/1 mon=sat"
  | "churn-1m", 6 ->
    Some
      "vcube n0=1000000 ev=10000000 vt=30 live=988093/1007561 churn=14875/417/7561/5010 \
       links=3922/3917 part=1526/1525 msg=7218642/1444 det=1826 lat=24/27/29 fs=2727 \
       dur=1/1/1 mon=sat"
  | "churn-long", 3 ->
    Some
      "vcube n0=10000 ev=800000 vt=60 live=9200/10590 churn=1169/185/590/406 links=331/319 \
       part=119/118 msg=857366/772 det=197 lat=26/33/36 fs=94481 dur=2/4/4 mon=undecided \
       (sample.completeness: a sampled crash is not yet suspected by every sampled observer)"
  | "churn-long", 4 ->
    Some
      "vcube n0=10000 ev=800000 vt=58 live=9188/10600 churn=1225/213/600/400 links=320/306 \
       part=130/130 msg=863537/739 det=197 lat=25/33/37 fs=95374 dur=2/2/2 mon=undecided \
       (sample.completeness: a sampled crash is not yet suspected by every sampled observer)"
  | "churn-long", 5 ->
    Some
      "vcube n0=10000 ev=800000 vt=59 live=9154/10566 churn=1206/206/566/412 links=303/289 \
       part=122/122 msg=844102/821 det=197 lat=25/33/36 fs=94880 dur=1/2/2 mon=undecided \
       (sample.accuracy: a live observer still suspects a live peer; sample.completeness: a \
       sampled crash is not yet suspected by every sampled observer)"
  | "churn-long", 6 ->
    Some
      "vcube n0=10000 ev=800000 vt=60 live=9176/10596 churn=1220/186/596/386 links=322/306 \
       part=119/119 msg=851977/748 det=215 lat=25/33/38 fs=94862 dur=1/2/2 mon=undecided \
       (sample.completeness: a sampled crash is not yet suspected by every sampled observer)"
  | _ -> None
