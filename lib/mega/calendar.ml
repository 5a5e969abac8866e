(* Bucket records are 5 consecutive ints: kind, a, b, c, d.  All
   events in a bucket share one timestamp, so insertion order is
   creation order (the heap drains a bucket's far-scheduled events
   before any near-scheduled insert can target that bucket epoch:
   direct insertion requires [at - now < wsize], and the drain runs at
   the first [now] where that holds, inside [pop], before user code at
   that time runs again). *)

type bucket = { mutable data : int array; mutable len : int; mutable cur : int }

(* A drained bucket hands its array to a pool of at most [max_spares]
   spares and keeps [[||]]; the next bucket to fill takes the most
   recently drained spare before allocating.  So the arrays retained
   are those of the buckets currently nonempty plus a few spares,
   however far virtual time has advanced, and a bucket refilled at the
   same load allocates nothing. *)
let max_spares = 4

type t = {
  wsize : int;
  wmask : int;
  buckets : bucket array;
  occ : Bytes.t;  (* occupancy per bucket, for the advance scan *)
  spares : int array array;
  mutable nspares : int;
  mutable wcount : int;  (* nonempty buckets *)
  mutable now : int;
  mutable pending : int;
  mutable seq : int;
  (* overflow min-heap on (time, seq), parallel arrays *)
  mutable ht : int array;
  mutable hs : int array;
  mutable hk : int array;
  mutable ha : int array;
  mutable hb : int array;
  mutable hc : int array;
  mutable hd : int array;
  mutable hlen : int;
  (* last popped event *)
  mutable ek : int;
  mutable ea : int;
  mutable eb : int;
  mutable ec : int;
  mutable ed : int;
}

let create ?(wheel_bits = 12) () =
  if wheel_bits < 2 || wheel_bits > 20 then
    invalid_arg "Calendar.create: wheel_bits out of range";
  let wsize = 1 lsl wheel_bits in
  { wsize;
    wmask = wsize - 1;
    buckets = Array.init wsize (fun _ -> { data = [||]; len = 0; cur = 0 });
    occ = Bytes.make wsize '\000';
    spares = Array.make max_spares [||];
    nspares = 0;
    wcount = 0;
    now = 0;
    pending = 0;
    seq = 0;
    ht = Array.make 16 0;
    hs = Array.make 16 0;
    hk = Array.make 16 0;
    ha = Array.make 16 0;
    hb = Array.make 16 0;
    hc = Array.make 16 0;
    hd = Array.make 16 0;
    hlen = 0;
    ek = 0;
    ea = 0;
    eb = 0;
    ec = 0;
    ed = 0;
  }

let now t = t.now
let pending t = t.pending
let ev_kind t = t.ek
let ev_a t = t.ea
let ev_b t = t.eb
let ev_c t = t.ec
let ev_d t = t.ed

let retained_words t =
  let n = ref (7 * Array.length t.ht) in
  Array.iter (fun bk -> n := !n + Array.length bk.data) t.buckets;
  Array.iter (fun d -> n := !n + Array.length d) t.spares;
  !n

let wheel_insert t at k a b c d =
  let i = at land t.wmask in
  let bk = t.buckets.(i) in
  if bk.len = 0 && t.nspares > 0 then begin
    t.nspares <- t.nspares - 1;
    bk.data <- t.spares.(t.nspares);
    t.spares.(t.nspares) <- [||]
  end;
  let cap = Array.length bk.data in
  if bk.len + 5 > cap then begin
    let d' = Array.make (max 20 (2 * cap)) 0 in
    Array.blit bk.data 0 d' 0 bk.len;
    bk.data <- d'
  end;
  let p = bk.len in
  bk.data.(p) <- k;
  bk.data.(p + 1) <- a;
  bk.data.(p + 2) <- b;
  bk.data.(p + 3) <- c;
  bk.data.(p + 4) <- d;
  if bk.len = bk.cur then begin
    (* bucket was (logically) empty *)
    Bytes.unsafe_set t.occ i '\001';
    t.wcount <- t.wcount + 1
  end;
  bk.len <- bk.len + 5

(* (time, seq) lexicographic *)
let heap_less t i j =
  t.ht.(i) < t.ht.(j) || (t.ht.(i) = t.ht.(j) && t.hs.(i) < t.hs.(j))

let heap_swap t i j =
  let sw a i j =
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  in
  sw t.ht i j;
  sw t.hs i j;
  sw t.hk i j;
  sw t.ha i j;
  sw t.hb i j;
  sw t.hc i j;
  sw t.hd i j

let heap_insert t at seq k a b c d =
  let cap = Array.length t.ht in
  if t.hlen >= cap then begin
    let grow a = Array.append a (Array.make cap 0) in
    t.ht <- grow t.ht;
    t.hs <- grow t.hs;
    t.hk <- grow t.hk;
    t.ha <- grow t.ha;
    t.hb <- grow t.hb;
    t.hc <- grow t.hc;
    t.hd <- grow t.hd
  end;
  let i = t.hlen in
  t.ht.(i) <- at;
  t.hs.(i) <- seq;
  t.hk.(i) <- k;
  t.ha.(i) <- a;
  t.hb.(i) <- b;
  t.hc.(i) <- c;
  t.hd.(i) <- d;
  t.hlen <- t.hlen + 1;
  let j = ref i in
  while !j > 0 && heap_less t !j ((!j - 1) / 2) do
    heap_swap t !j ((!j - 1) / 2);
    j := (!j - 1) / 2
  done

let heap_pop_into_wheel t =
  (* move the heap minimum into its wheel bucket *)
  wheel_insert t t.ht.(0) t.hk.(0) t.ha.(0) t.hb.(0) t.hc.(0) t.hd.(0);
  t.hlen <- t.hlen - 1;
  if t.hlen > 0 then begin
    heap_swap t 0 t.hlen;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < t.hlen && heap_less t l !m then m := l;
      if r < t.hlen && heap_less t r !m then m := r;
      if !m = !i then continue := false
      else begin
        heap_swap t !i !m;
        i := !m
      end
    done
  end

let drain t =
  while t.hlen > 0 && t.ht.(0) - t.now < t.wsize do
    heap_pop_into_wheel t
  done

let schedule t ~at ~kind ~a ~b ~c ~d =
  let at = if at <= t.now then t.now else at in
  t.pending <- t.pending + 1;
  t.seq <- t.seq + 1;
  if at - t.now < t.wsize then wheel_insert t at kind a b c d
  else heap_insert t at t.seq kind a b c d

let reset_bucket t i =
  let bk = t.buckets.(i) in
  if bk.len > bk.cur then invalid_arg "Calendar: resetting nonempty bucket";
  if Bytes.unsafe_get t.occ i = '\001' then begin
    Bytes.unsafe_set t.occ i '\000';
    t.wcount <- t.wcount - 1
  end;
  if t.nspares < max_spares then begin
    t.spares.(t.nspares) <- bk.data;
    t.nspares <- t.nspares + 1
  end;
  bk.data <- [||];
  bk.len <- 0;
  bk.cur <- 0

let advance t =
  (* precondition: pending > 0 and the current bucket is drained *)
  if t.wcount > 0 then begin
    let b0 = t.now land t.wmask in
    let d = ref 1 in
    while Bytes.unsafe_get t.occ ((b0 + !d) land t.wmask) = '\000' do
      incr d
    done;
    t.now <- t.now + !d
  end
  else t.now <- t.ht.(0);
  drain t

let rec pop t =
  if t.pending = 0 then false
  else begin
    let i = t.now land t.wmask in
    let bk = t.buckets.(i) in
    if bk.cur < bk.len then begin
      let p = bk.cur in
      t.ek <- bk.data.(p);
      t.ea <- bk.data.(p + 1);
      t.eb <- bk.data.(p + 2);
      t.ec <- bk.data.(p + 3);
      t.ed <- bk.data.(p + 4);
      bk.cur <- p + 5;
      t.pending <- t.pending - 1;
      if bk.cur >= bk.len then reset_bucket t i;
      true
    end
    else begin
      advance t;
      pop t
    end
  end
