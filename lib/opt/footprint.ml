(* Static read/write footprints of statements, used to decide when two
   program fragments are independent.  Computed-index cells ("z[r]") are
   approximated by their base name with a wildcard, conflicting with every
   cell of the same array. *)

open Tmx_lang

type t = { reads : string list; writes : string list; has_atomic : bool }

let empty = { reads = []; writes = []; has_atomic = false }

let merge a b =
  {
    reads = a.reads @ b.reads;
    writes = a.writes @ b.writes;
    has_atomic = a.has_atomic || b.has_atomic;
  }

let lval_name ({ base; index } : Ast.lval) =
  match index with None -> base | Some _ -> base ^ "[*]"

let rec of_stmt (s : Ast.stmt) =
  match s with
  | Load (_, lv) -> { empty with reads = [ lval_name lv ] }
  | Store (lv, _) -> { empty with writes = [ lval_name lv ] }
  | Assign _ | Skip | Abort -> empty
  | Fence x -> { empty with reads = [ x ]; writes = [ x ] }
  | Atomic body -> { (of_stmts body) with has_atomic = true }
  | If (_, t, e) -> merge (of_stmts t) (of_stmts e)
  | While (_, b) -> of_stmts b

and of_stmts body = List.fold_left (fun acc s -> merge acc (of_stmt s)) empty body

(* The array base of a cell name ("z" for "z[0]" or "z[*]"), if any. *)
let base_of n =
  match String.index_opt n '[' with
  | Some i -> Some (String.sub n 0 i)
  | None -> None

(* Two footprint names clash when equal, or when one is a wildcard cell of
   the other's array. *)
let name_clash a b =
  String.equal a b
  ||
  match (base_of a, base_of b) with
  | Some ba, Some bb -> String.equal ba bb && (String.equal a (ba ^ "[*]") || String.equal b (bb ^ "[*]"))
  | _ -> false

(* A wildcard footprint name refers to every declared cell of its base;
   any other name refers to itself. *)
let expand_name ~locs name =
  match base_of name with
  | Some base when String.equal name (base ^ "[*]") ->
      let prefix = base ^ "[" in
      let plen = String.length prefix in
      List.filter
        (fun l ->
          String.length l >= plen && String.equal (String.sub l 0 plen) prefix)
        locs
  | _ -> [ name ]

let sets_clash xs ys = List.exists (fun x -> List.exists (name_clash x) ys) xs

(* Conflict: same location, at least one write. *)
let conflicts a b =
  sets_clash a.writes b.writes || sets_clash a.writes b.reads
  || sets_clash a.reads b.writes

let is_read_only f = f.writes = []
let is_write_only f = f.reads = []
