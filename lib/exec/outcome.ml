(* Final-state observations of an execution: per-thread register values
   and final memory (the nonaborted write with the greatest timestamp per
   location). *)

type t = { regs : (string * int) list array; mem : (string * int) list }

(* Zero-valued bindings are dropped: zero is the default for unbound
   registers and untouched locations, so this canonicalizes outcomes
   across components that track different sets of names (e.g. the
   enumerator knows dynamically-discovered array cells the simulator
   never touches). *)
let normalize bindings =
  List.sort compare (List.filter (fun (_, v) -> v <> 0) bindings)

let registers envs = Array.of_list (List.map normalize envs)
let of_registers regs ~mem = { regs; mem = normalize mem }
let make ~envs ~mem = of_registers (registers envs) ~mem

let reg o thread r =
  if thread < 0 || thread >= Array.length o.regs then 0
  else Option.value (List.assoc_opt r o.regs.(thread)) ~default:0

let mem o x = Option.value (List.assoc_opt x o.mem) ~default:0

(* the order of [compare (a.regs, a.mem) (b.regs, b.mem)], without the
   two tuples per call *)
let compare_t (a : t) (b : t) =
  match Stdlib.compare a.regs b.regs with 0 -> Stdlib.compare a.mem b.mem | c -> c

let equal a b = compare_t a b = 0

let dedup outcomes = List.sort_uniq compare_t outcomes

(* differential-testing hooks: containment of one engine's observable
   outcome set in another's, and the offending witnesses when not *)
let diff xs ys = List.filter (fun x -> not (List.exists (equal x) ys)) xs
let subset xs ys = diff xs ys = []

let pp ppf o =
  let pp_binding ppf (k, v) = Fmt.pf ppf "%s=%d" k v in
  Array.iteri
    (fun i env ->
      if env <> [] then
        Fmt.pf ppf "t%d:[%a] " i Fmt.(list ~sep:(any " ") pp_binding) env)
    o.regs;
  Fmt.pf ppf "mem:[%a]" Fmt.(list ~sep:(any " ") pp_binding) o.mem
