(* Static access summaries: every load/store of a program, with its
   thread, mode (plain vs transactional), footprint location name
   (computed-index cells become the "base[*]" wildcard, as in
   [Tmx_opt.Footprint]), a human-readable source path, and the
   conservative facts the race analysis needs:

   - [must_abort]: the enclosing transaction aborts on every control
     path, so no dynamic instance of the access is ever nonaborted;
   - [fences_before]/[fences_after]: quiescence fences that dominate /
     postdominate the access in its thread (every path from the thread
     start to the access crosses the fence, resp. every path from the
     access to the thread end does);
   - [after_atomic]: some atomic block precedes the access in its thread
     (the privatization-shaped suffix of [Tmx_opt.Fenceify]);
   - [txn_reads]: locations read by the enclosing transaction (empty for
     plain accesses), and [prior_atomic_writes]: locations written by
     atomic blocks preceding the access in its thread.  Together these
     recognize guarded-publication / privatization idioms.
   - [walk]/[in_loop]/[nonzero_guards]: the static walk index (within a
     loop-free thread, executed statements execute in walk order), loop
     membership, and the registers every dominating branch condition
     pins nonzero — the facts behind [Order]'s guard-dominance rule.

   Dominance is computed over branch scopes: a fence dominates an access
   iff it occurs earlier in the walk and its chain of enclosing
   If/While constructs is a prefix of the access's chain.

   [context] additionally collects the program-global facts the
   guard-dominance rule needs: every register definition (with what it
   loads, where, and whether transactionally) and per-thread loop
   presence. *)

open Tmx_lang

type mode = Plain | Transactional
type kind = Read | Write

let pp_mode ppf = function
  | Plain -> Fmt.string ppf "plain"
  | Transactional -> Fmt.string ppf "tx"

let pp_kind ppf = function
  | Read -> Fmt.string ppf "read"
  | Write -> Fmt.string ppf "write"

type t = {
  thread : int;
  kind : kind;
  mode : mode;
  loc : string;
  path : string;
  stmt : Ast.stmt;
  walk : int;
  in_loop : bool;
  nonzero_guards : string list;
  must_abort : bool;
  fences_before : string list;
  fences_after : string list;
  after_atomic : bool;
  txn_reads : string list;
  txn_writes : string list;
  prior_atomic_writes : string list;
  prior_atomic_reads : string list;
  later_atomic_writes : string list;
}

let pp ppf a =
  Fmt.pf ppf "t%d %a %a %s (%s: %a)" a.thread pp_mode a.mode pp_kind a.kind
    a.loc a.path Ast.pp_stmt a.stmt

(* -- must-abort ------------------------------------------------------------- *)

(* Does every control path from the start of [body] hit an [abort],
   given that paths falling off its end abort iff [cont]?  Loops are a
   conservative stop: a while body may run zero times or forever, and
   anything after a loop is not examined (sound: we only ever claim
   must-abort when it provably holds). *)
let rec tail_aborts body cont =
  match body with
  | [] -> cont
  | Ast.Abort :: _ -> true
  | Ast.If (_, t, e) :: rest ->
      let k = tail_aborts rest cont in
      tail_aborts t k && tail_aborts e k
  | Ast.While _ :: _ -> false
  | _ :: rest -> tail_aborts rest cont

let body_must_abort body = tail_aborts body false

(* -- location reads/writes of a statement list ------------------------------ *)

let rec body_reads acc = function
  | [] -> acc
  | s :: rest ->
      let acc =
        match (s : Ast.stmt) with
        | Load (_, lv) -> Tmx_opt.Footprint.lval_name lv :: acc
        | Atomic b | While (_, b) -> body_reads acc b
        | If (_, t, e) -> body_reads (body_reads acc t) e
        | Store _ | Assign _ | Abort | Fence _ | Skip -> acc
      in
      body_reads acc rest

let rec body_writes acc = function
  | [] -> acc
  | s :: rest ->
      let acc =
        match (s : Ast.stmt) with
        | Store (lv, _) -> Tmx_opt.Footprint.lval_name lv :: acc
        | Atomic b | While (_, b) -> body_writes acc b
        | If (_, t, e) -> body_writes (body_writes acc t) e
        | Load _ | Assign _ | Abort | Fence _ | Skip -> acc
      in
      body_writes acc rest

(* -- guard conditions -------------------------------------------------------- *)

(* Registers that a branch condition forces to be nonzero.  Conditions
   evaluate C-style (nonzero is true, [Proto.eval]), so [Reg r] in a
   taken then-branch, or [r = 0] in a taken else-branch, pins r ≠ 0.
   Conservative: anything unrecognized contributes nothing. *)
let rec nonzero_when_true : Ast.expr -> string list = function
  | Reg r -> [ r ]
  | Ne (Reg r, Int 0) | Ne (Int 0, Reg r) -> [ r ]
  | (Eq (Reg r, Int k) | Eq (Int k, Reg r)) when k <> 0 -> [ r ]
  | Not e -> nonzero_when_false e
  | And (a, b) -> nonzero_when_true a @ nonzero_when_true b
  | _ -> []

and nonzero_when_false : Ast.expr -> string list = function
  | Eq (Reg r, Int 0) | Eq (Int 0, Reg r) -> [ r ]
  | Not e -> nonzero_when_true e
  | Or (a, b) -> nonzero_when_false a @ nonzero_when_false b
  | _ -> []

(* the path prefix of the enclosing atomic block, if any ("t1.0.atomic"
   for "t1.0.atomic.2.then.0"); atomics never nest, so the first
   ".atomic" segment is the one *)
let txn_prefix path =
  let needle = ".atomic" in
  let n = String.length path and m = String.length needle in
  let rec find i =
    if i + m > n then None
    else if String.sub path i m = needle then Some (String.sub path 0 (i + m))
    else find (i + 1)
  in
  find 0

(* -- extraction ------------------------------------------------------------- *)

type def = {
  def_thread : int;
  reg : string;
  from_load : string option;
      (* the footprint name loaded when the def is [r := x] *)
  def_walk : int;
  def_txn : string option; (* enclosing atomic path, if transactional *)
  def_in_loop : bool;
}

type raw_item = Racc of t | Rfence of string | Ratomic of string list
(* [Ratomic ws]: an atomic block writing [ws] ended at this walk position *)

type raw = { walk : int; scope : int list; item : raw_item }

let is_scope_prefix pre full =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | p :: ps, f :: fs -> p = f && go (ps, fs)
  in
  go (pre, full)

let analyze_thread thread stmts =
  let items = ref [] in
  let defs = ref [] in
  let walk = ref 0 in
  let has_loop = ref false in
  let scope_id = ref 0 in
  let after_atomic = ref false in
  let atomic_writes = ref [] in
  let atomic_reads = ref [] in
  (* every statement consumes a walk index, so indices linearize the
     static walk: within a loop-free thread, executed statements execute
     in strictly increasing walk order *)
  let next_walk () =
    let w = !walk in
    incr walk;
    w
  in
  let emit w scope item =
    items := { walk = w; scope = List.rev scope; item } :: !items
  in
  (* [txn] is [None] outside transactions, [Some (path, reads, writes)]
     inside.  [cont] is the must-abort continuation: does every control
     path from just after the current statement to the end of the
     transaction body hit an [abort]?  Per-access rather than per-body,
     so a write in an always-aborting branch (D.2's speculation) is
     recognized even when the transaction can also commit.  [guards]
     are the registers every dominating branch condition pins nonzero;
     [in_loop] marks statements inside a [while] body. *)
  let rec stmt ~scope ~path ~txn ~cont ~guards ~in_loop (s : Ast.stmt) =
    let w = next_walk () in
    let access kind lv =
      let mode, must_abort, txn_reads, txn_writes =
        match txn with
        | None -> (Plain, false, [], [])
        | Some (_, reads, writes) -> (Transactional, cont, reads, writes)
      in
      emit w scope
        (Racc
           {
             thread;
             kind;
             mode;
             loc = Tmx_opt.Footprint.lval_name lv;
             path;
             stmt = s;
             walk = w;
             in_loop;
             nonzero_guards = List.sort_uniq compare guards;
             must_abort;
             fences_before = [];
             fences_after = [];
             after_atomic = !after_atomic;
             txn_reads;
             txn_writes;
             prior_atomic_writes = !atomic_writes;
             prior_atomic_reads = !atomic_reads;
             later_atomic_writes = [];
           })
    in
    let define reg from_load =
      defs :=
        {
          def_thread = thread;
          reg;
          from_load;
          def_walk = w;
          def_txn = (match txn with None -> None | Some (p, _, _) -> Some p);
          def_in_loop = in_loop;
        }
        :: !defs
    in
    match s with
    | Load (r, lv) ->
        define r (Some (Tmx_opt.Footprint.lval_name lv));
        access Read lv
    | Store (lv, _) -> access Write lv
    | Assign (r, _) -> define r None
    | Fence x -> emit w scope (Rfence x)
    | Atomic b ->
        let writes = List.sort_uniq compare (body_writes [] b) in
        let tpath = path ^ ".atomic" in
        let txn = Some (tpath, List.sort_uniq compare (body_reads [] b), writes) in
        (* falling off the end of the body commits, so cont restarts *)
        body ~scope ~path:tpath ~txn ~cont:false ~guards ~in_loop b;
        emit (next_walk ()) scope (Ratomic writes);
        after_atomic := true;
        atomic_writes := List.sort_uniq compare (body_writes !atomic_writes b);
        atomic_reads := List.sort_uniq compare (body_reads !atomic_reads b)
    | If (c, t, e) ->
        let fresh () = incr scope_id; !scope_id in
        body ~scope:(fresh () :: scope) ~path:(path ^ ".then") ~txn ~cont
          ~guards:(nonzero_when_true c @ guards) ~in_loop t;
        body ~scope:(fresh () :: scope) ~path:(path ^ ".else") ~txn ~cont
          ~guards:(nonzero_when_false c @ guards) ~in_loop e
    | While (_, b) ->
        incr scope_id;
        has_loop := true;
        (* the loop may exit or re-run: no continuation claim inside,
           and the condition pins nothing across iterations *)
        body ~scope:(!scope_id :: scope) ~path:(path ^ ".do") ~txn ~cont:false
          ~guards ~in_loop:true b
    | Abort | Skip -> ()
  and body ~scope ~path ~txn ~cont ~guards ~in_loop stmts =
    let rec go i = function
      | [] -> ()
      | s :: rest ->
          stmt ~scope
            ~path:(Fmt.str "%s.%d" path i)
            ~txn
            ~cont:(tail_aborts rest cont)
            ~guards ~in_loop s;
          go (i + 1) rest
    in
    go 0 stmts
  in
  body ~scope:[] ~path:(Fmt.str "t%d" thread) ~txn:None ~cont:false ~guards:[]
    ~in_loop:false stmts;
  let raws = List.rev !items in
  (* dominating / postdominating fences *)
  let fences =
    List.filter
      (fun r -> match r.item with Rfence _ -> true | Racc _ | Ratomic _ -> false)
      raws
  in
  let atomics =
    List.filter
      (fun r -> match r.item with Ratomic _ -> true | Racc _ | Rfence _ -> false)
      raws
  in
  let accesses =
    List.filter_map
      (fun r ->
        match r.item with
        | Rfence _ | Ratomic _ -> None
        | Racc a ->
            let before, after =
              List.fold_left
                (fun (bs, afs) f ->
                  match f.item with
                  | Rfence x when is_scope_prefix f.scope r.scope ->
                      if f.walk < r.walk then (x :: bs, afs)
                      else (bs, x :: afs)
                  | _ -> (bs, afs))
                ([], []) fences
            in
            let later =
              List.concat_map
                (fun m ->
                  match m.item with
                  | Ratomic ws
                    when m.walk > r.walk && is_scope_prefix m.scope r.scope ->
                      ws
                  | _ -> [])
                atomics
            in
            Some
              {
                a with
                fences_before = List.sort_uniq compare before;
                fences_after = List.sort_uniq compare after;
                later_atomic_writes = List.sort_uniq compare later;
              })
      raws
  in
  (accesses, List.rev !defs, !has_loop)

let of_thread thread stmts =
  let accesses, _, _ = analyze_thread thread stmts in
  accesses

let of_program (p : Ast.program) =
  List.concat (List.mapi of_thread p.threads)

(* -- program-wide context ---------------------------------------------------- *)

type context = {
  ctx_accesses : t list;
  ctx_defs : def list;
  ctx_loops : bool array; (* per thread: does it contain a while? *)
}

let context (p : Ast.program) =
  let per_thread = List.mapi analyze_thread p.threads in
  {
    ctx_accesses = List.concat_map (fun (a, _, _) -> a) per_thread;
    ctx_defs = List.concat_map (fun (_, d, _) -> d) per_thread;
    ctx_loops = Array.of_list (List.map (fun (_, _, l) -> l) per_thread);
  }

(* -- per-location classification -------------------------------------------- *)

type counts = {
  plain_reads : int;
  plain_writes : int;
  tx_reads : int;
  tx_writes : int;
}

let no_counts = { plain_reads = 0; plain_writes = 0; tx_reads = 0; tx_writes = 0 }

type class_ = Unused | Plain_only | Tx_only | Mixed

let pp_class ppf = function
  | Unused -> Fmt.string ppf "unused"
  | Plain_only -> Fmt.string ppf "plain-only"
  | Tx_only -> Fmt.string ppf "tx-only"
  | Mixed -> Fmt.string ppf "mixed"

type summary = {
  loc : string;
  class_ : class_;
  counts : counts;
  threads : int list;
}

let class_of_counts c =
  let plain = c.plain_reads + c.plain_writes > 0 in
  let tx = c.tx_reads + c.tx_writes > 0 in
  match (plain, tx) with
  | false, false -> Unused
  | true, false -> Plain_only
  | false, true -> Tx_only
  | true, true -> Mixed

let summarize_loc accesses loc =
  let touching =
    List.filter (fun (a : t) -> Tmx_opt.Footprint.name_clash a.loc loc) accesses
  in
  let counts =
    List.fold_left
      (fun c a ->
        match (a.mode, a.kind) with
        | Plain, Read -> { c with plain_reads = c.plain_reads + 1 }
        | Plain, Write -> { c with plain_writes = c.plain_writes + 1 }
        | Transactional, Read -> { c with tx_reads = c.tx_reads + 1 }
        | Transactional, Write -> { c with tx_writes = c.tx_writes + 1 })
      no_counts touching
  in
  {
    loc;
    class_ = class_of_counts counts;
    counts;
    threads = List.sort_uniq compare (List.map (fun a -> a.thread) touching);
  }

let summaries (p : Ast.program) =
  let accesses = of_program p in
  (* declared locations first, then any undeclared footprint names the
     program mentions (typos; Ast.validate rejects them, but the summary
     stays total for diagnostics) *)
  let declared = p.locs in
  let extra =
    List.sort_uniq compare
      (List.filter_map
         (fun (a : t) ->
           let covered =
             List.exists (fun l -> Tmx_opt.Footprint.name_clash a.loc l) declared
           in
           if covered then None else Some a.loc)
         accesses)
  in
  List.map (summarize_loc accesses) (declared @ extra)
