type span = {
  id : int;
  name : string;
  arg : string;
  parent : int;
  start : float;
  stop : float;
}

let on = ref false
let set_enabled b = on := b

(* finished spans, newest first; the stack holds the ids of open ones *)
let finished : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let counters : (string, float) Hashtbl.t = Hashtbl.create 32

let reset () =
  finished := [];
  stack := [];
  next_id := 0;
  Hashtbl.reset counters

let span ?(arg = "") name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        stack := List.tl !stack;
        finished := { id; name; arg; parent; start; stop } :: !finished)
  end

let add name v =
  if !on then
    Hashtbl.replace counters name
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0.0 (Hashtbl.find_opt counters name)

let duration s = s.stop -. s.start

let sum p = List.fold_left (fun acc s -> if p s then acc +. duration s else acc) 0.0 !finished

let total ?arg name =
  sum (fun s -> s.name = name && match arg with None -> true | Some a -> s.arg = a)

let total_prefix prefix = sum (fun s -> String.starts_with ~prefix s.name)
let top_level () = sum (fun s -> s.parent < 0)

let layer name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let self_by_layer () =
  (* spans on one domain nest strictly, so the children of a span cover
     exactly the sum of their durations *)
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !finished;
  let self = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let own = duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      let l = layer s.name in
      Hashtbl.replace self l (own +. Option.value ~default:0.0 (Hashtbl.find_opt self l)))
    !finished;
  List.sort compare (List.of_seq (Hashtbl.to_seq self))

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": %S, \"arg\": %S, \"parent\": %d, \"start\": %.6f, \"end\": %.6f}\n"
        s.id s.name s.arg s.parent s.start s.stop)
    (List.sort (fun a b -> compare a.id b.id) !finished);
  Hashtbl.iter (fun k v -> Printf.fprintf oc "{\"counter\": %S, \"value\": %.17g}\n" k v) counters;
  close_out oc
