(* Correctness checks on every response. None of them trusts the served
   "verified" field where verification was skipped: a [verify=false]
   or degraded simulate reports "ok" without comparing anything, so
   those results are checked only by digest against the benchmark's
   own evaluator. *)

module Wire = An5d_serve.Wire
module W = Workload

type t = { mutable failures : int; mutable notes : string list }

let create () = { failures = 0; notes = [] }

let fail t fmt =
  Printf.ksprintf
    (fun s ->
      t.failures <- t.failures + 1;
      if List.length t.notes < 20 then t.notes <- s :: t.notes)
    fmt

let field k = function Wire.Obj kv -> List.assoc_opt k kv | _ -> None

let int_field k j = match field k j with Some (Wire.Int n) -> n | _ -> -1

let str_field k j = match field k j with Some (Wire.Str s) -> s | _ -> ""

(* Kernel launches of a resident run under the §4.3 host logic: one
   per chunk of at most [bt] steps, plus one when the chunk count and
   the step count differ in parity, since a chunk is then split so the
   result lands in the right buffer. *)
let expected_launches ~steps ~bt =
  let q = (steps + bt - 1) / bt in
  q + ((q - steps) land 1)

let check_sim t (s : W.sim) payload =
  let line = W.line (W.Sim s) in
  if str_field "kind" payload <> "simulate" then fail t "%s: not a simulate payload" line
  else begin
    let c = Option.value (field "counters" payload) ~default:Wire.Null in
    let n k = int_field k c in
    let flops = (2 * n "fma") + n "mul" + n "add" + n "other" in
    let per_cell = (W.bench s.bench).Bench_defs.Benchmarks.flops_per_cell in
    if n "cells_updated" <= 0 || flops <> per_cell * n "cells_updated" then
      fail t "%s: %d flops for %d cell updates at %d flop/cell" line flops (n "cells_updated")
        per_cell;
    if s.shards = 1 && n "kernel_launches" <> expected_launches ~steps:s.steps ~bt:s.bt then
      fail t "%s: %d kernel launches, expected %d" line (n "kernel_launches")
        (expected_launches ~steps:s.steps ~bt:s.bt);
    if s.verify && field "verified" payload <> Some (Wire.Str "ok") then
      fail t "%s: verification did not pass" line;
    if String.length (str_field "grid_digest" payload) = 0 then fail t "%s: no grid digest" line
  end

let check_tune t (q : W.tune) payload =
  let line = W.line (W.Tune q) in
  let nd = (W.bench q.t_bench).Bench_defs.Benchmarks.pattern.Stencil.Pattern.dims in
  let full = if nd = 2 then 144 else 64 in
  let explored = int_field "explored" payload in
  if str_field "kind" payload <> "tune" then fail t "%s: not a tune payload" line
  else begin
    (* tune_sweep compiles and simulates the winner it parses from here *)
    if W.parse_config (str_field "best" payload) = None then
      fail t "%s: winner %S does not parse" line (str_field "best" payload);
    match field "seeded" payload with
    | Some Wire.Null | None ->
        if explored <> full then fail t "%s: unseeded tune explored %d, expected %d" line explored full
    | Some _ ->
        if explored > full / 2 then
          fail t "%s: seeded tune explored %d of %d" line explored full
  end

let find s sub from =
  let n = String.length s and m = String.length sub in
  let rec matches i k = k = m || (s.[i + k] = sub.[k] && matches i (k + 1)) in
  let rec go i = if i + m > n then None else if matches i 0 then Some i else go (i + 1) in
  go from

(* Every "kernel_<name>_bt<d>" a translation unit declares. *)
let kernel_degrees ~ident cuda =
  let prefix = "__global__ void kernel_" ^ ident ^ "_bt" in
  let pl = String.length prefix in
  let rec scan i acc =
    match find cuda prefix i with
    | None -> List.sort_uniq compare acc
    | Some j ->
        let k = ref (j + pl) in
        while !k < String.length cuda && cuda.[!k] >= '0' && cuda.[!k] <= '9' do
          incr k
        done;
        scan !k (int_of_string (String.sub cuda (j + pl) (!k - j - pl)) :: acc)
  in
  scan 0 []

let check_compile t (c : W.compile) payload =
  let line = W.line (W.Compile c) in
  let ident = String.map (function '-' -> '_' | ch -> ch) c.c_bench in
  let got = kernel_degrees ~ident (str_field "cuda" payload) in
  if got <> List.init c.c_bt (fun i -> i + 1) then
    fail t "%s: kernels for degrees [%s], expected 1..%d" line
      (String.concat ";" (List.map string_of_int got)) c.c_bt

(* Status and kind-specific properties of one response. Returns whether
   the request counts as failed: a failed status, a framed error, or
   any degraded or shed response. *)
let response t req (r : W.resp) =
  if r.status <> "done" then true
  else begin
    (match req with
    | W.Sim s -> check_sim t s r.payload
    | W.Tune q -> check_tune t q r.payload
    | W.Compile c -> check_compile t c r.payload);
    false
  end
