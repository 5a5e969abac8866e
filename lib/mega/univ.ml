open Afd_analysis

let live = 1
let crashed = 2
let left = 3

type t = {
  ucap : int;
  n0 : int;
  statuses : Bytes.t;
  joiners : int Pack.interner;  (* joiner k has dense id n0 + k *)
  ext : int array;
  mutable n : int;
  mutable nlive : int;
}

let create ~cap ~n =
  if n < 1 || n > cap then invalid_arg "Univ.create: need 1 <= n <= cap";
  let statuses = Bytes.make cap '\000' in
  Bytes.fill statuses 0 n (Char.chr live);
  { ucap = cap;
    n0 = n;
    statuses;
    joiners = Pack.interner ~hash:(fun (x : int) -> x * 0x9e3779b1) ~equal:Int.equal ();
    ext = Array.init cap (fun i -> if i < n then i else -1);
    n;
    nlive = n;
  }

let cap t = t.ucap
let count t = t.n
let live_count t = t.nlive
let status t i = Char.code (Bytes.unsafe_get t.statuses i)
let is_live t i = status t i = live

let set_status t i s =
  let old = status t i in
  if old = live && s <> live then t.nlive <- t.nlive - 1;
  if old <> live && s = live then t.nlive <- t.nlive + 1;
  Bytes.unsafe_set t.statuses i (Char.chr s)

let join t ~ext =
  (* an initial process's external id is its dense id *)
  if t.n >= t.ucap || (ext >= 0 && ext < t.n0) then None
  else begin
    let id = t.n0 + Pack.intern t.joiners ext in
    if id <> t.n then None (* external id already interned *)
    else begin
      t.ext.(id) <- ext;
      t.n <- t.n + 1;
      Bytes.unsafe_set t.statuses id (Char.chr live);
      t.nlive <- t.nlive + 1;
      Some id
    end
  end

let ext_id t i = t.ext.(i)
