(** In-memory spans and counters for the benchmark's traced run.

    A span wraps one call from the benchmark into a layer of the
    system: its name (["layer.operation"]), an optional argument (the
    subject or seed it ran on), start and end times, and the span that
    was open when it started.  Spans and counters stay in memory until
    {!write}; with tracing disabled {!span} is a plain call and
    {!add} does nothing. *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop every recorded span and counter. *)

val span : ?arg:string -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] and, when tracing is on, records it. *)

val add : string -> float -> unit
(** Add to a named counter (created at 0). *)

val counter : string -> float

val total : ?arg:string -> string -> float
(** Summed duration of the spans with this name (and argument). *)

val total_prefix : string -> float
(** Summed duration of the spans whose name starts with the prefix. *)

val top_level : unit -> float
(** Summed duration of the top-level spans. *)

val self_by_layer : unit -> (string * float) list
(** Per layer — a span name's text up to the first dot — the summed
    self time of its spans: each span's duration minus the part of it
    its child spans cover. *)

val write : string -> unit
(** Write the spans (one JSON object a line, in start order) and then
    the counters to the file. *)
