(* In-process half of the benchmark; run.py drives it.

   [setup]    generates the client database(s) of a workload, harvests its
              CCs, completes the size CCs (as `hydra extract` does) and
              writes the specs that the `hydra summary` runs consume.
   [measure]  times one dynamic-regeneration phase on the summaries those
              runs wrote: materialization, full-tuple supply, random
              access or query replay through the executor.
   [check]    runs every correctness check on those summaries.
   [trace]    times the public calls of the other layers, from outside.

   Each prints one JSON object as its last line of stdout. *)

open Hydra_rel
module T = Hydra_benchmarks.Tpcds
module J = Hydra_benchmarks.Job
module Workload = Hydra_workload.Workload
module Cc = Hydra_workload.Cc
module Cc_parser = Hydra_workload.Cc_parser
module Database = Hydra_engine.Database
module Executor = Hydra_engine.Executor
module Summary = Hydra_core.Summary
module Tuple_gen = Hydra_core.Tuple_gen
module Preprocess = Hydra_core.Preprocess
module Formulate = Hydra_core.Formulate
module Pool = Hydra_par.Pool
module Obs = Hydra_obs.Obs
module Json = Hydra_obs.Json
module Mclock = Hydra_obs.Mclock

(* ---- workloads ---- *)

let sf = 100
let exabyte_factor = 1e13 (* CODD factor: ~10^18 tuples *)
let drift_epochs = 3

type workload = {
  schema : Schema.t;
  generate : int -> Database.t;  (** client database at a scale factor *)
  queries : unit -> Workload.t;
  epoch_sfs : int list;  (** client scale factor of each warm re-run *)
  exabyte : bool;  (** random access reads a 10^13-scaled copy *)
}

(* [data_seed = None] keeps each generator's own default seed *)
let workload ?data_seed = function
  | "wlc-cold" ->
      {
        schema = T.schema;
        generate = (fun sf -> T.generate ?seed:data_seed ~sf ());
        queries = (fun () -> T.workload_complex ?seed:data_seed ());
        (* an unchanged client database: every warm run replays the cache *)
        epoch_sfs = List.init drift_epochs (fun _ -> sf);
        (* a 10^13-scaled WLc copy would cost a second 20 s LP *)
        exabyte = false;
      }
  | "job-drift" ->
      {
        schema = J.schema;
        generate = (fun sf -> J.generate ?seed:data_seed ~sf ());
        queries = (fun () -> J.workload ?seed:data_seed ());
        (* the client database grows 2% per epoch *)
        epoch_sfs = List.init drift_epochs (fun i -> sf + (2 * (i + 1)));
        exabyte = true;
      }
  | w -> failwith ("unknown workload " ^ w)

(* ---- helpers ---- *)

let time f =
  let t0 = Mclock.now () in
  let v = f () in
  (v, Mclock.now () -. t0)

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (int_of_float (Float.of_int n *. p)))

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let emit_json fields =
  print_endline
    (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) fields)))

let spec_path dir name = Filename.concat dir (name ^ ".hydra")

(* ---- setup: client database -> CC spec ---- *)

let harvest w sf =
  let jobs = Pool.default_jobs () in
  let db, gen_s = time (fun () -> w.generate sf) in
  let ccs, harvest_s =
    time (fun () -> Workload.extract_ccs ~jobs db (w.queries ()))
  in
  let sizes =
    List.map
      (fun (r : Schema.relation) -> (r.Schema.rname, Database.nrows db r.rname))
      (Schema.relations w.schema)
  in
  (Hydra_core.Pipeline.complete_size_ccs w.schema ccs sizes, gen_s, harvest_s)

let setup w dir =
  let one () =
    let cold, g0, h0 = harvest w sf in
    write_file (spec_path dir "cold") (Cc_parser.emit w.schema cold);
    let gen = ref g0 and hv = ref h0 and nccs = List.length cold in
    List.iteri
      (fun i esf ->
        let ccs =
          if esf = sf then cold
          else begin
            let ccs, g, h = harvest w esf in
            gen := !gen +. g;
            hv := !hv +. h;
            ccs
          end
        in
        write_file
          (spec_path dir (Printf.sprintf "epoch%d" (i + 1)))
          (Cc_parser.emit w.schema ccs))
      w.epoch_sfs;
    if w.exabyte then begin
      let scaling = Hydra_codd.Scaling.create ~factor:exabyte_factor in
      write_file (spec_path dir "exabyte")
        (Cc_parser.emit w.schema (Hydra_codd.Scaling.scale_ccs scaling cold))
    end;
    (!gen, !hv, nccs)
  in
  let (gen, hv, nccs), wall = time one in
  emit_json
    [
      ("setup_s", wall);
      ("benchmarks.generate_s", gen);
      ("workload.harvest_s", hv);
      ("workload.ccs", float_of_int nccs);
    ]

(* ---- checks computed apart from the program ---- *)

(* A failed check is reported on stderr and counted. *)
let failures = ref 0
let checks = ref 0

let check ok fmt =
  incr checks;
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        prerr_endline ("check failed: " ^ msg)
      end)
    fmt

(* DNF evaluation of a predicate on one row group *)
let satisfies (p : Predicate.t) value_of =
  List.exists
    (List.for_all (fun (attr, (iv : Interval.t)) ->
         let v = value_of attr in
         iv.Interval.lo <= v && v < iv.Interval.hi))
    p

let col_index (rs : Summary.relation_summary) name =
  let rec go i =
    if i >= Array.length rs.Summary.rs_cols then
      failwith ("no column " ^ name ^ " in " ^ rs.Summary.rs_rel)
    else if rs.Summary.rs_cols.(i) = name then i
    else go (i + 1)
  in
  go 0

(* the group of [rs] whose cumulative NumTuples range covers row [p] *)
let covering starts p =
  let lo = ref 0 and hi = ref (Array.length starts - 2) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= p then lo := mid else hi := mid - 1
  done;
  !lo

(* The value of qualified attribute [attr] in the tuples of group [g] of
   [rel]: own attributes are read off the group; a referenced relation's
   through the fk column, which holds the pk (1-based row) of the first
   tuple of the target's matching group. *)
let rec group_value schema (s : Summary.t) rel g attr =
  let rs = Summary.relation s rel in
  let values, _ = rs.Summary.rs_rows.(g) in
  let owner, a = Schema.split_qualified attr in
  if owner = rel then values.(col_index rs a)
  else
    let fk, target =
      List.find
        (fun (_, t) ->
          t = owner || List.mem owner (Schema.transitive_references schema t))
        (Schema.find schema rel).Schema.fks
    in
    let starts = Tuple_gen.group_starts (Summary.relation s target) in
    let pk = values.(col_index rs fk) in
    group_value schema s target (covering starts (pk - 1)) attr

(* |sigma_p(R join ...)| counted from the row groups of the join group's
   root R: the NumTuples of every group whose (joined) values satisfy p *)
let count_from_groups schema (s : Summary.t) root p =
  let rs = Summary.relation s root in
  let n = ref 0 in
  Array.iteri
    (fun g (_, k) ->
      if satisfies p (group_value schema s root g) then n := !n + k)
    rs.Summary.rs_rows;
  !n

let extra_of (s : Summary.t) rel =
  Option.value ~default:0 (List.assoc_opt rel s.Summary.extra_tuples)

(* The method's guarantees on one summary: no CC undershot; every CC whose
   join group has no integrity-repair tuples met exactly; every relation
   holds its size CC plus its repair tuples. Tuple-count CCs are counted
   from the row groups; grouping CCs, which count distinct values, are
   measured on the materialized database. Returns the number of failed
   checks. *)
let check_summary label (s : Summary.t) ccs stored =
  let before = !failures in
  List.iter
    (fun (cc : Cc.t) ->
      let actual =
        if cc.Cc.group_by = [] then
          count_from_groups s.Summary.schema s
            (Cc.root_relation s.Summary.schema cc)
            cc.Cc.predicate
        else Cc.measure (Lazy.force stored) cc
      in
      let repaired = List.exists (fun r -> extra_of s r > 0) cc.Cc.relations in
      check (actual >= cc.Cc.card) "%s: %s undershot: %d < %d" label
        (Cc.to_string cc) actual cc.Cc.card;
      if not repaired then
        check (actual = cc.Cc.card) "%s: %s missed: %d <> %d" label
          (Cc.to_string cc) actual cc.Cc.card;
      match cc.Cc.relations with
      | [ r ] when cc.Cc.predicate = Predicate.true_ && cc.Cc.group_by = [] ->
          let rs = Summary.relation s r in
          let rows = Array.fold_left (fun a (_, n) -> a + n) 0 rs.Summary.rs_rows in
          check
            (rows = cc.Cc.card + extra_of s r && rs.Summary.rs_total = rows)
            "%s: |%s| = %d rows (total %d), size CC %d + %d repair" label r
            rows rs.Summary.rs_total cc.Cc.card (extra_of s r)
      | _ -> ())
    ccs;
  !failures - before

(* the self-test: one NumTuples changed must make the checks fail *)
let mutated (s : Summary.t) =
  let target =
    List.fold_left
      (fun best (rs : Summary.relation_summary) ->
        match best with
        | Some (b : Summary.relation_summary) when b.rs_total >= rs.rs_total ->
            best
        | _ -> Some rs)
      None s.Summary.relations
    |> Option.get
  in
  let bump (rs : Summary.relation_summary) =
    if rs.rs_rel <> target.rs_rel then rs
    else
      let rows = Array.copy rs.rs_rows in
      let v, n = rows.(0) in
      rows.(0) <- (v, n + 1);
      { rs with rs_rows = rows; rs_total = rs.rs_total + 1 }
  in
  { s with relations = List.map bump s.Summary.relations }

(* ---- datagen: the dynamic-regeneration layers ---- *)

(* The summaries the summary runs wrote, and what the phases read. *)
type ctx = {
  w : workload;
  dir : string;
  seed : int;
  jobs : int;
  spec : Cc_parser.spec;
  summary : Summary.t;  (** the cold run's summary *)
  queries : Workload.query list;
}

let load_summary dir schema name =
  Summary.load (Filename.concat dir (name ^ ".summary")) schema

let context w dir ~seed =
  let spec = Cc_parser.parse_file (spec_path dir "cold") in
  {
    w;
    dir;
    seed;
    jobs = Pool.default_jobs ();
    spec;
    summary = load_summary dir spec.Cc_parser.schema "cold";
    queries = Workload.queries (w.queries ());
  }

let largest n (s : Summary.t) =
  List.sort
    (fun (a : Summary.relation_summary) b -> compare b.rs_total a.rs_total)
    s.Summary.relations
  |> List.filteri (fun i _ -> i < n)

(* the supply phase reads the five largest relations *)
let supplied c = largest 5 c.summary

(* the column a relation's supply sums, as a position in its tuples *)
let supply_col c (rs : Summary.relation_summary) =
  1 + (abs c.seed mod Array.length rs.rs_cols)

(* full-tuple supply: every row of every supplied relation, one column
   summed per relation *)
let supply c =
  List.map
    (fun (rs : Summary.relation_summary) ->
      let src = Tuple_gen.row_source rs and col = supply_col c rs in
      let acc = ref 0 in
      for r = 0 to rs.rs_total - 1 do
        acc := !acc + (src r).(col)
      done;
      !acc)
    (supplied c)

(* random access reads one column of the largest relation of the cold
   summary, or of its 10^13-scaled copy *)
type access = {
  rel : Summary.relation_summary;
  col : int;
  read : int -> int;
  positions : int array;
}

let access_batch = 1_000_000

let access_setup c =
  let s =
    if c.w.exabyte then load_summary c.dir c.spec.Cc_parser.schema "exabyte"
    else c.summary
  in
  let rel = List.hd (largest 1 s) in
  let col = abs c.seed mod Array.length rel.rs_cols in
  let st = Random.State.make [| c.seed; 0x5eed |] in
  let positions =
    Array.init access_batch (fun _ ->
        (* uniform over [0, total) for totals beyond 2^30 *)
        let hi = Random.State.bits st and lo = Random.State.bits st in
        ((hi lsl 30) lor lo) mod rel.rs_total)
  in
  {
    rel;
    col;
    read = Database.reader (Tuple_gen.dynamic s) rel.rs_rel rel.rs_cols.(col);
    positions;
  }

let replay db c =
  List.map
    (fun (q : Workload.query) ->
      time (fun () -> Executor.cardinality db q.Workload.plan))
    c.queries

(* Collect samples of [f] for [budget] seconds, at least one, after 0.2 s
   of untimed calls: materializing runs about three times slower until the
   heap has grown to its working size. Each sample lasts a tenth of a
   second or more (the mean over calls made back to back), so a
   few-millisecond call is not left to the timer and the scheduler. *)
let samples ~budget f =
  let run_for seconds =
    let s0 = Mclock.now () and calls = ref 0 in
    while !calls = 0 || Mclock.now () -. s0 < seconds do
      f ();
      incr calls
    done;
    ((Mclock.now () -. s0) /. float_of_int !calls, !calls)
  in
  ignore (run_for 0.2);
  let t0 = Mclock.now () in
  let rec go acc =
    if acc <> [] && Mclock.now () -. t0 >= budget then List.rev acc
    else go (run_for 0.1 :: acc)
  in
  go []

(* One measured phase in this process: its samples (seconds per call),
   the work one call does, and the operations attempted. *)
let measure c phase ~budget =
  let per_call, ops_per_call, f =
    match phase with
    | "materialize" ->
        ( Summary.total_rows c.summary,
          1,
          fun () ->
            ignore (Sys.opaque_identity (Tuple_gen.materialize ~jobs:c.jobs c.summary)) )
    | "supply" ->
        let rows =
          List.fold_left
            (fun a (rs : Summary.relation_summary) -> a + rs.rs_total)
            0 (supplied c)
        in
        (rows, List.length (supplied c), fun () -> ignore (Sys.opaque_identity (supply c)))
    | "access" ->
        let a = access_setup c in
        ( access_batch,
          1,
          fun () ->
            let acc = ref 0 in
            for i = 0 to access_batch - 1 do
              acc := !acc + a.read a.positions.(i)
            done;
            ignore (Sys.opaque_identity !acc) )
    | "replay" ->
        let db = Tuple_gen.dynamic c.summary in
        (1, List.length c.queries, fun () -> ignore (Sys.opaque_identity (replay db c)))
    | p -> failwith ("unknown phase " ^ p)
  in
  let ss = samples ~budget f in
  let calls = List.fold_left (fun a (_, n) -> a + n) 0 ss in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("samples", Json.List (List.map (fun (t, _) -> Json.Float t) ss));
            ("work_per_call", Json.Int per_call);
            ("attempted", Json.Int (calls * ops_per_call));
          ]))

(* Every check on the summaries and the data they regenerate. *)
let check_all c =
  let schema = c.spec.Cc_parser.schema in
  let jobs = c.jobs in
  let load = load_summary c.dir schema in
  let spec_of name = (Cc_parser.parse_file (spec_path c.dir name)).Cc_parser.ccs in
  let stored = lazy (Tuple_gen.materialize ~jobs c.summary) in
  ignore (check_summary "cold" c.summary c.spec.Cc_parser.ccs stored);
  (* a warm run of an unchanged spec must reproduce the cold summary byte
     for byte; a grown one is checked like the cold one *)
  let slurp path = In_channel.with_open_bin path In_channel.input_all in
  let summary_file name = Filename.concat c.dir (name ^ ".summary") in
  List.iteri
    (fun i _ ->
      let name = Printf.sprintf "epoch%d" (i + 1) in
      if slurp (spec_path c.dir name) = slurp (spec_path c.dir "cold") then
        check
          (slurp (summary_file name) = slurp (summary_file "cold"))
          "%s: warm summary differs from the cold one" name
      else
        let s = load name in
        ignore
          (check_summary name s (spec_of name)
             (lazy (Tuple_gen.materialize ~jobs s))))
    c.w.epoch_sfs;
  (* teeth: the same checks must reject a summary with one NumTuples off *)
  let caught =
    let saved = !failures and saved_checks = !checks in
    prerr_endline "self-test: the next failures are expected";
    let bad = mutated c.summary in
    let n =
      check_summary "self-test" bad c.spec.Cc_parser.ccs
        (lazy (Tuple_gen.materialize ~jobs bad))
    in
    failures := saved;
    checks := saved_checks;
    n
  in
  check (caught > 0) "self-test: a changed NumTuples passed every check";
  let stored = Lazy.force stored in
  (* datagen supply against the materialized tables *)
  List.iter2
    (fun (rs : Summary.relation_summary) sum ->
      let tbl =
        match Database.source stored rs.rs_rel with
        | Database.Stored t -> t
        | Database.Generated _ -> assert false
      in
      let col = Table.column tbl (List.nth (Table.col_names tbl) (supply_col c rs)) in
      let s = Array.fold_left ( + ) 0 col in
      check (s = sum) "%s: datagen column sum %d <> stored %d" rs.rs_rel sum s)
    (supplied c) (supply c);
  (* the row at p belongs to the group whose cumulative range covers p *)
  let a = access_setup c in
  let starts = Tuple_gen.group_starts a.rel in
  for i = 0 to 999 do
    let p = a.positions.(i) in
    check
      (a.read p = (fst a.rel.rs_rows.(covering starts p)).(a.col))
      "%s[%d].%s is not its covering group's value" a.rel.rs_rel p
      a.rel.rs_cols.(a.col)
  done;
  (* every query: the same cardinality on both bindings *)
  List.iter2
    (fun (q : Workload.query) (card, _) ->
      let n = Executor.cardinality stored q.Workload.plan in
      check (n = card) "%s: datagen %d rows, stored %d" q.Workload.qname card n)
    c.queries
    (replay (Tuple_gen.dynamic c.summary) c);
  print_endline
    (Json.to_string
       (Json.Obj [ ("attempted", Json.Int !checks); ("failed", Json.Int !failures) ]))

(* Per-layer timings of public calls, from outside, and the engine counters
   of one replay from the program's own registry. *)
let trace c =
  let schema = c.spec.Cc_parser.schema in
  let views, pre_s = time (fun () -> Preprocess.run schema c.spec.Cc_parser.ccs) in
  let (), build_s =
    time (fun () ->
        List.iter
          (fun v -> ignore (Formulate.refine_shared (Formulate.build_problems v)))
          views)
  in
  let tmp = Filename.concat c.dir "trace.summary" in
  let (), save_s = time (fun () -> Summary.save tmp c.summary) in
  let _, load_s = time (fun () -> Summary.load tmp schema) in
  (* single reads, each timed on its own, for the tail *)
  let a = access_setup c in
  let singles =
    List.init 100_000 (fun i ->
        let p = a.positions.(i) in
        let t0 = Mclock.now_ns () in
        ignore (Sys.opaque_identity (a.read p));
        Int64.to_float (Int64.sub (Mclock.now_ns ()) t0))
  in
  let db = Tuple_gen.dynamic c.summary in
  Obs.set_enabled true;
  let before = Obs.snapshot_counters (Obs.snapshot ()) in
  let per_query = List.map (fun (_, dt) -> dt *. 1e3) (replay db c) in
  let after = Obs.snapshot_counters (Obs.snapshot ()) in
  Obs.set_enabled false;
  let delta k =
    let get l = Option.value ~default:0 (List.assoc_opt k l) in
    float_of_int (get after - get before)
  in
  emit_json
    [
      ("preprocess.run_s", pre_s);
      ("preprocess.views", float_of_int (List.length views));
      ("formulate.build_s", build_s);
      ("summary.save_s", save_s);
      ("summary.load_s", load_s);
      ("tuple_gen.random_access_ns_p99", percentile singles 0.99);
      ("engine.query_ms_p50", percentile per_query 0.5);
      ("engine.query_ms_p80", percentile per_query 0.8);
      ("engine.scan_rows_out", delta "engine.scan.rows_out");
      ("engine.datagen_rows_out", delta "engine.datagen.rows_out");
      ("engine.filter_rows_out", delta "engine.filter.rows_out");
      ("engine.join_rows_out", delta "engine.join.rows_out");
    ]

(* ---- command line ---- *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opt k = function
    | a :: v :: _ when a = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let req k = match opt k args with Some v -> v | None -> failwith ("missing " ^ k) in
  let data_seed = Option.map int_of_string (opt "--data-seed" args) in
  let w = workload ?data_seed (req "--workload") in
  let dir = req "--dir" in
  let ctx () = context w dir ~seed:(int_of_string (req "--seed")) in
  match args with
  | "setup" :: _ -> setup w dir
  | "measure" :: _ ->
      measure (ctx ()) (req "--phase") ~budget:(float_of_string (req "--budget"))
  | "check" :: _ -> check_all (ctx ())
  | "trace" :: _ -> trace (ctx ())
  | _ ->
      failwith
        "usage: bench (setup|measure|check|trace) --workload W --dir D \
         [--seed N] [--phase P --budget S] [--data-seed N]"
