(** The event calendar of the mega engine: a timing wheel with an
    overflow heap.

    Events are 5-int records [(kind, a, b, c, d)] scheduled at integer
    virtual times.  Events within the wheel horizon ([now, now + W))
    live in per-time buckets of a [W]-slot wheel; farther events wait
    in a binary min-heap keyed by [(time, seq)] and are drained into
    the wheel as [now] advances past their horizon.  Both paths
    preserve global creation (FIFO) order among events with equal
    timestamps: heap entries for a bucket are drained before any
    direct insert into that bucket epoch can occur, and within each
    path entries are kept in sequence order.

    A drained bucket's array goes to a small pool of spares and the
    next bucket to fill takes one before allocating, so the storage
    retained follows the buckets still pending, not how far virtual
    time has advanced.  [pop]/[schedule] allocate only when a bucket
    outgrows the spare it took, or when no spare is left (the heap and
    the popped-event fields are reused too), which is what keeps the
    engine at millions of events per second. *)

type t

val create : ?wheel_bits:int -> unit -> t
(** [wheel_bits] (default 12) sizes the wheel at [2^wheel_bits]
    ticks. *)

val now : t -> int
(** Current virtual time: the timestamp of the last popped event. *)

val pending : t -> int
(** Events scheduled and not yet popped. *)

val schedule : t -> at:int -> kind:int -> a:int -> b:int -> c:int -> d:int -> unit
(** Schedule an event at virtual time [at] ([at < now] is clamped to
    [now]).  Fields must be nonnegative ints (the engine packs ids and
    payloads; nothing is boxed). *)

val pop : t -> bool
(** Advance to and consume the earliest pending event; [false] when
    the calendar is empty.  After [pop t = true] the event is exposed
    by {!ev_kind} .. {!ev_d} until the next [pop]. *)

val retained_words : t -> int
(** Words of event storage the calendar holds: bucket arrays, spare
    arrays and the overflow heap. *)

val ev_kind : t -> int
val ev_a : t -> int
val ev_b : t -> int
val ev_c : t -> int
val ev_d : t -> int
