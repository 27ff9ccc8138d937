(* Shared helpers: clocks, order statistics, the run record, and the
   result printer every workload ends with. *)

let now_ns = Tmx_runtime.Clock.now_ns
let secs ns = float_of_int ns /. 1e9
let ms ns = float_of_int ns /. 1e6

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array, [p] in (0, 1]. *)
let pct s p =
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Peak resident set of the benchmark process, from /proc (Linux). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
      in
      let v = go () in
      close_in ic;
      v

(* Derives a PRNG state from the seed and a stream name, so each part
   of a workload draws from its own stream. *)
let rng ~seed stream = Random.State.make [| seed; Hashtbl.hash stream |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let rec mkdir_p d =
  if not (Sys.file_exists d) then (
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

(* -- the result ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string; n : int option }

let metrics : metric list ref = ref []
let notes : string list ref = ref []
let add ?n name unit value = metrics := { name; value; unit; n } :: !metrics
let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

(* Notes the values a median is taken over, in the order measured. *)
let note_series what values =
  note "%s: %s" what
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6g") values)))

(* The median and the 99th percentile of [samples], as the metrics
   [name 50] and [name 99], each with the sample count.  A failed
   operation is +inf in [samples]. *)
let add_percentiles name unit samples =
  let s = sorted samples in
  let n = Array.length s in
  add ~n (name 50) unit (pct s 0.5);
  add ~n (name 99) unit (pct s 0.99)

(* The end-to-end operation latency: its median as [op_p50_ms], and its
   99th percentile as a note only, since across seeds it spread wider
   than any bound a gate could use. *)
let add_op_latency samples =
  let s = sorted samples in
  let n = Array.length s in
  add ~n "op_p50_ms" "ms" (pct s 0.5);
  note "op_p99_ms = %.6g ms (n=%d; reported, not listed)" (pct s 0.99) n

type env = { seed : int; commit : string; workload : string; trace : bool }

let env_lines env =
  [
    Printf.sprintf "workload %s" env.workload;
    Printf.sprintf "seed %d" env.seed;
    Printf.sprintf "trace %b" env.trace;
    Printf.sprintf "nproc %d" (Domain.recommended_domain_count ());
    Printf.sprintf "ocaml %s" Sys.ocaml_version;
    Printf.sprintf "commit %s" env.commit;
    Printf.sprintf "OCAMLRUNPARAM %s"
      (Option.value ~default:"(unset)" (Sys.getenv_opt "OCAMLRUNPARAM"));
  ]

(* JSON has no infinity; a latency made infinite by a failed request is
   printed as the largest double. *)
let json_num v =
  if Float.is_nan v then "null"
  else if not (Float.is_finite v) then if v > 0. then "1e308" else "-1e308"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let short = Printf.sprintf "%.15g" v in
    if float_of_string short = v then short else Printf.sprintf "%.17g" v

(* The metrics BENCHMARK.json lists for a run, each with its unit: the
   end-to-end ones for an untraced run, the per-layer ones for a traced
   run. *)
let listed ~path ~trace =
  let module J = Tmx_service.Json in
  let fail msg = failwith (Printf.sprintf "%s: %s" path msg) in
  let text =
    try In_channel.with_open_bin path In_channel.input_all with Sys_error e -> fail e
  in
  let key = if trace then "per_layer" else "end_to_end" in
  let str m k = Option.bind (J.mem k m) J.to_str in
  match Result.map (fun j -> Option.bind (J.mem key j) J.to_list) (J.of_string text) with
  | Error e -> fail e
  | Ok None -> fail ("no list " ^ key)
  | Ok (Some ms) ->
      List.map
        (fun m ->
          match (str m "name", str m "unit") with
          | Some n, Some u -> (n, u)
          | _ -> fail ("a metric of " ^ key ^ " lacks its name or unit"))
        ms

(* Prints the human-readable report, writes the full record under [out],
   and ends stdout with the one-line JSON result, which holds exactly the
   [listed] metrics in their order.  A per-layer metric of a layer the
   workload never calls reads 0.  A listed end-to-end metric the workload
   did not measure, a unit other than the listed one, a metric that is
   not listed or a NaN is a fault of the benchmark and makes the run
   incorrect.  Returns whether the run was correct. *)
let finish ~out ~listed env ~correct ~attempted ~failed =
  let measured = List.rev !metrics in
  let faults = ref [] in
  let fault fmt = Printf.ksprintf (fun s -> faults := ("FAULT " ^ s) :: !faults) fmt in
  List.iter
    (fun m -> if not (List.mem_assoc m.name listed) then fault "metric %s is not listed" m.name)
    measured;
  let unused = ref 0 in
  let ms =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun m -> m.name = name) measured with
        | Some m ->
            if m.unit <> unit then fault "metric %s: unit %s, listed as %s" name m.unit unit;
            if Float.is_nan m.value then fault "metric %s is NaN" name;
            m
        | None when env.trace ->
            incr unused;
            { name; value = 0.; unit; n = Some 0 }
        | None ->
            fault "metric %s was not measured" name;
            { name; value = nan; unit; n = None })
      listed
  in
  if !unused > 0 then
    note "%d listed per-layer metrics belong to layers this workload does not call: they read 0"
      !unused;
  let correct = correct && !faults = [] in
  let lines =
    env_lines env
    @ List.rev !notes
    @ List.rev !faults
    @ List.map
        (fun m ->
          Printf.sprintf "metric %s = %s %s%s" m.name (json_num m.value) m.unit
            (match m.n with Some n -> Printf.sprintf " (n=%d)" n | None -> ""))
        ms
    @ [
        Printf.sprintf "error_rate = %s (%d failed / %d attempted)"
          (json_num (float_of_int failed /. float_of_int (max 1 attempted)))
          failed attempted;
      ]
  in
  List.iter print_endline lines;
  mkdir_p out;
  let path =
    Filename.concat out
      (Printf.sprintf "result-%s-seed%d-trace%d.txt" env.workload env.seed
         (if env.trace then 1 else 0))
  in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_num m.value)
             m.unit)
         ms)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 attempted) failed body;
  correct
