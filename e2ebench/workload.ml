(* Seeded request streams of the four workloads. A run is a sequence of
   whole rounds; each round is the same multiset of operations, and the
   seed only picks input values, grid-size jitter, order and the sample
   checked by the independent evaluator. So two runs differ in their
   inputs but not in the mix they time. *)

module Grid = Stencil.Grid
module B = Bench_defs.Benchmarks

type sim = {
  bench : string;
  prec : Grid.precision;
  dims : int array;
  bt : int;
  bs : int array;
  hs : int option;
  reg_limit : int option;
  device : string;
  steps : int;
  seed : int;
  shards : int;
  workers : int;
  verify : bool;
  check : bool;  (** digest checked by the independent evaluator *)
}

type tune = {
  t_bench : string;
  t_device : string;
  t_prec : Grid.precision;
  t_dims : int array;
  t_steps : int;
}

type compile = {
  c_bench : string;
  c_prec : Grid.precision;
  c_bt : int;
  c_bs : int array;
  c_hs : int option;
  c_reg_limit : int option;
}

type req = Sim of sim | Tune of tune | Compile of compile

(* A response as the client sees it. *)
type resp = { status : string; served : string; payload : An5d_serve.Wire.json }

let bench name =
  match B.find name with Some b -> b | None -> invalid_arg ("unknown stencil " ^ name)

let dims_str d = String.concat "x" (Array.to_list (Array.map string_of_int d))

let prec_str = function Grid.F32 -> "float" | Grid.F64 -> "double"

let opt key = function None -> "" | Some v -> Printf.sprintf " %s=%d" key v

let line = function
  | Sim s ->
      Printf.sprintf "simulate %s bt=%d bs=%s%s%s dims=%s prec=%s device=%s steps=%d seed=%d%s%s"
        s.bench s.bt (dims_str s.bs) (opt "hs" s.hs) (opt "reg-limit" s.reg_limit)
        (dims_str s.dims) (prec_str s.prec) s.device s.steps s.seed
        (if s.shards > 1 then Printf.sprintf " shards=%d workers=%d" s.shards s.workers
         else "")
        (if s.verify then "" else " verify=false")
  | Tune t ->
      Printf.sprintf "tune %s device=%s prec=%s dims=%s steps=%d" t.t_bench t.t_device
        (prec_str t.t_prec) (dims_str t.t_dims) t.t_steps
  | Compile c ->
      Printf.sprintf "compile %s bt=%d bs=%s%s%s prec=%s" c.c_bench c.c_bt (dims_str c.c_bs)
        (opt "hs" c.c_hs) (opt "reg-limit" c.c_reg_limit) (prec_str c.c_prec)

let kind = function Sim _ -> "simulate" | Tune _ -> "tune" | Compile _ -> "compile"

(* Cell updates a request asks for: grid cells x steps, simulate only. *)
let cells = function
  | Sim s -> float_of_int (Array.fold_left ( * ) 1 s.dims * s.steps)
  | Tune _ | Compile _ -> 0.0

(* What the reference check sees as "the same input". *)
let input_key s = (s.bench, s.prec, s.dims, s.seed, s.steps)

let rng seed salt = Random.State.make [| 0x6535; seed; salt |]

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let valid_config ~bench:b ~bt ~bs =
  let rad = (bench b).B.pattern.Stencil.Pattern.radius in
  bt >= 1
  && Array.for_all (fun x -> x > 2 * bt * rad) bs
  && Array.fold_left ( * ) 1 bs <= 1024

(* Distinct input seeds: run seed in the high bits, position below. *)
let input_seed seed round slot = ((seed land 0xFFFFF) lsl 12) + (round lsl 5) + slot + 1

type t = {
  name : string;
  workers : int;  (** [--workers] of the server *)
  fill : req list;  (** set-up requests that prime the caches *)
  max_rounds : int;
  round_s : float;
      (** nominal length of one round at the reference speed: a run
          makes [ceil (seconds / round_s)] rounds, at most
          [max_rounds], so its work does not depend on the host speed *)
  replay_rounds : int;  (** rounds the traced run replays in-process *)
  round : int -> (req -> resp) -> unit;
      (** send round [r]'s requests through the executor; later
          requests of a round may depend on earlier responses *)
}

let sim ?(hs = None) ?(reg_limit = None) ?(device = "v100") ?(shards = 1) ?(workers = 1)
    ?(verify = true) ?(check = false) ~bench ~prec ~dims ~bt ~bs ~steps ~seed () =
  Sim
    { bench; prec; dims; bt; bs; hs; reg_limit; device; steps; seed; shards; workers; verify;
      check }

(* ------------------------------------------------------------------ *)
(* cold_verified                                                       *)
(* ------------------------------------------------------------------ *)

(* One template per Table 3 stencil, plus four more of the cheap ones
   at the other precision: 25, so that the median and the 90th
   percentile of a run fall mid-way into one template's group of
   latencies rather than on the edge between two. A template fixes
   precision, temporal degree and step count; grid sides follow from a
   fixed budget of term evaluations per request, so cheap stencils get
   grids above the 2 MiB L2 and the 343/729-point boxes get small
   ones. *)
let cold_templates =
  let f = Grid.F32 and d = Grid.F64 in
  [| ("star2d1r", d, 2, 4); ("star2d2r", f, 8, 9); ("star2d3r", d, 3, 4);
     ("star2d4r", f, 4, 5); ("box2d1r", f, 5, 6); ("box2d2r", d, 2, 3);
     ("box2d3r", f, 1, 2); ("box2d4r", d, 3, 3); ("j2d5pt", d, 1, 3);
     ("j2d9pt", f, 6, 7); ("j2d9pt-gol", d, 7, 8); ("gradient2d", f, 1, 1);
     ("star3d1r", d, 1, 3); ("star3d2r", f, 4, 5); ("star3d3r", d, 2, 3);
     ("star3d4r", f, 3, 4); ("box3d1r", f, 8, 8); ("box3d2r", d, 3, 3);
     ("box3d3r", f, 2, 2); ("box3d4r", d, 1, 1); ("j3d27pt", f, 4, 5);
     ("star2d1r", f, 1, 1); ("j2d5pt", f, 2, 2); ("box2d1r", d, 4, 4); ("star3d1r", f, 1, 1) |]

let cold_budget = 4.0e6

let cold_dims name steps =
  let b = bench name in
  let p = b.B.pattern in
  let nd = p.Stencil.Pattern.dims in
  let terms = List.length p.Stencil.Pattern.offsets in
  let side =
    Float.pow (cold_budget /. float_of_int (terms * steps)) (1.0 /. float_of_int nd)
  in
  Array.make nd (int_of_float side)

(* Per-round grid jitter, distinct across rounds: 16 offsets of at most
   3 cells per dimension in 2D, and of at most 2 in 3D. *)
let jitters nd =
  if nd = 2 then Array.init 16 (fun i -> [| i / 4; i mod 4 |])
  else Array.init 27 (fun i -> [| i / 9; i / 3 mod 3; i mod 3 |])

let cold_verified seed =
  let perms =
    Array.mapi
      (fun i (name, _, _, _) ->
        let nd = (bench name).B.pattern.Stencil.Pattern.dims in
        shuffle (rng seed (100 + i)) (jitters nd))
      cold_templates
  in
  let round r exec =
    let st = rng seed (1000 + r) in
    let order = shuffle st (Array.init (Array.length cold_templates) Fun.id) in
    let sampled = Array.sub (shuffle st order) 0 4 in
    Array.iter
      (fun t ->
        let name, prec, bt, steps = cold_templates.(t) in
        let base = cold_dims name steps in
        let dims = Array.mapi (fun i x -> x + perms.(t).(r).(i)) base in
        let bs = if Array.length dims = 2 then [| 256 |] else [| 32; 32 |] in
        ignore
          (exec
             (sim ~bench:name ~prec ~dims ~bt ~bs ~steps ~seed:(input_seed seed r t)
                ~check:(Array.mem t sampled) ())))
      order
  in
  { name = "cold_verified"; workers = 1; fill = []; max_rounds = 16; round_s = 1.55; replay_rounds = 1; round }

(* ------------------------------------------------------------------ *)
(* tune_sweep                                                          *)
(* ------------------------------------------------------------------ *)

(* Stencil, precision, and the grid and step count of the verified
   simulates. j3d27pt gets a larger grid than the other 3D stencils so
   that its four simulates and box3d2r's are the 8 clearly heaviest of
   a round's 42 requests: the 90th percentile then falls mid-way into
   that group instead of on its edge. *)
let tune_stencils =
  [| ("j2d5pt", Grid.F64, [| 160; 160 |], 16); ("star2d2r", Grid.F32, [| 160; 160 |], 16);
     ("box2d1r", Grid.F64, [| 160; 160 |], 16); ("star3d1r", Grid.F32, [| 28; 28; 28 |], 8);
     ("box3d2r", Grid.F64, [| 28; 28; 28 |], 8); ("j3d27pt", Grid.F32, [| 44; 44; 44 |], 8) |]

(* Config.pp rendering of a tuned winner: "bT=10 bS=512 h=256 regs=-". *)
let parse_config s =
  let field key =
    List.find_map
      (fun tok ->
        match String.index_opt tok '=' with
        | Some i when String.sub tok 0 i = key ->
            Some (String.sub tok (i + 1) (String.length tok - i - 1))
        | _ -> None)
      (String.split_on_char ' ' s)
  in
  let num = function Some "-" | None -> None | Some v -> int_of_string_opt v in
  match (num (field "bT"), field "bS") with
  | Some bt, Some bs ->
      let bs = Array.of_list (List.map int_of_string (String.split_on_char 'x' bs)) in
      Some (bt, bs, num (field "h"), num (field "regs"))
  | _ -> None

let tune_sweep seed =
  let perms = Array.mapi (fun g _ -> shuffle (rng seed (700 + g)) (Array.init 64 Fun.id)) tune_stencils in
  let round r exec =
    Array.iteri
      (fun g (name, prec, dims, steps) ->
        let nd = (bench name).B.pattern.Stencil.Pattern.dims in
        let t_dims = if nd = 2 then [| 16384; 16384 |] else [| 512; 512; 512 |] in
        let t_steps = 1000 + perms.(g).(r) in
        let tune dev =
          exec (Tune { t_bench = name; t_device = dev; t_prec = prec; t_dims; t_steps })
        in
        ignore (tune "v100");
        let winner =
          match (tune "p100").payload with
          | An5d_serve.Wire.Obj kv -> (
              match List.assoc_opt "best" kv with
              | Some (An5d_serve.Wire.Str s) -> parse_config s
              | _ -> None)
          | _ -> None
        in
        match winner with
        | None -> () (* counted as a failed request, or failed by Checks.check_tune *)
        | Some (bt, bs, hs, reg_limit) ->
            ignore
              (exec
                 (Compile
                    { c_bench = name; c_prec = prec; c_bt = bt; c_bs = bs; c_hs = hs;
                      c_reg_limit = reg_limit }));
            let neighbours =
              List.filter
                (fun b -> b <> bt && valid_config ~bench:name ~bt:b ~bs)
                [ bt - 1; bt + 1; bt - 2; bt + 2; bt - 3; bt + 3 ]
            in
            let seed = input_seed seed r g in
            List.iter
              (fun bt ->
                ignore
                  (exec
                     (sim ~bench:name ~prec ~dims ~bt ~bs ~hs ~reg_limit ~device:"p100" ~steps
                        ~seed ~check:true ())))
              (bt :: List.filteri (fun i _ -> i < 3) neighbours))
      tune_stencils
  in
  { name = "tune_sweep"; workers = 1; fill = []; max_rounds = 64; round_s = 2.1; replay_rounds = 1; round }

(* ------------------------------------------------------------------ *)
(* warm_repeat                                                         *)
(* ------------------------------------------------------------------ *)

let warm_keys seed =
  let s i = input_seed seed 0 i in
  let f = Grid.F32 and d = Grid.F64 in
  (* Hottest first (see [warm_counts]). The small 3D keys are the hot
     ones: their group holds the median, and a hit's cost is then
     mostly the round trip, which the calibration tracks well; the
     digest a hit recomputes (over 100 KiB on the 2D keys here, 16 to
     22 KiB on the 3D ones) tracks it worse. *)
  let sims =
    [ sim ~bench:"star3d1r" ~prec:f ~dims:[| 16; 16; 16 |] ~bt:2 ~bs:[| 32; 32 |] ~steps:4 ~seed:(s 0) ();
      sim ~bench:"box3d1r" ~prec:d ~dims:[| 14; 14; 14 |] ~bt:1 ~bs:[| 32; 32 |] ~steps:2 ~seed:(s 1) ();
      sim ~bench:"j3d27pt" ~prec:f ~dims:[| 16; 16; 16 |] ~bt:2 ~bs:[| 32; 32 |] ~steps:4 ~seed:(s 2) ();
      sim ~bench:"box2d1r" ~prec:d ~dims:[| 96; 96 |] ~bt:3 ~bs:[| 256 |] ~steps:6 ~seed:(s 3) ();
      sim ~bench:"j2d5pt" ~prec:d ~dims:[| 128; 128 |] ~bt:4 ~bs:[| 256 |] ~steps:8 ~seed:(s 4) ();
      sim ~bench:"star2d1r" ~prec:f ~dims:[| 192; 192 |] ~bt:2 ~bs:[| 256 |] ~steps:4 ~seed:(s 5) () ]
  in
  let tune name dev prec dims =
    Tune { t_bench = name; t_device = dev; t_prec = prec; t_dims = dims; t_steps = 1000 }
  in
  let tunes =
    [ tune "j2d5pt" "v100" d [| 16384; 16384 |]; tune "star3d1r" "p100" f [| 512; 512; 512 |];
      tune "box2d2r" "v100" d [| 16384; 16384 |] ]
  in
  let compile name prec bt bs =
    Compile
      { c_bench = name; c_prec = prec; c_bt = bt; c_bs = bs; c_hs = None; c_reg_limit = None }
  in
  let compiles =
    [ compile "box3d2r" f 4 [| 32; 32 |]; compile "j3d27pt" d 4 [| 32; 32 |];
      compile "star2d3r" f 8 [| 256 |]; compile "box2d2r" d 4 [| 256 |] ]
  in
  (sims @ tunes, compiles)

(* A round is 16 requests: the 9 simulate and tune keys with fixed
   Zipf-like counts 3, 2, 1, ... 1 (12 hits), and the 4 compiles once
   each, in a seeded order. Which key is hot is fixed, not seeded, so
   every round costs the same whatever the seed. *)
let warm_counts = [| 3; 2; 1; 1; 1; 1; 1; 1; 1 |]

let warm_repeat seed =
  let hits, compiles = warm_keys seed in
  let round_reqs =
    Array.append
      (Array.concat (List.mapi (fun i q -> Array.make warm_counts.(i) q) hits))
      (Array.of_list compiles)
  in
  let round r exec = Array.iter (fun q -> ignore (exec q)) (shuffle (rng seed (5000 + r)) round_reqs) in
  { name = "warm_repeat"; workers = 1; fill = hits @ compiles; max_rounds = 1_000_000;
    round_s = 0.035; replay_rounds = 8; round }

(* ------------------------------------------------------------------ *)
(* sharded_workers                                                     *)
(* ------------------------------------------------------------------ *)

(* Two seeded inputs per round, each under several (shards, bt)
   configurations with 2, 3, 4 or 6 temporal chunks, i.e. 1 to 5 halo
   exchanges per run. The second input is about 2.5 times the work of
   the first and takes 2 of the 10 requests, so the 90th percentile
   falls mid-way into its group instead of on the noise tail of
   requests that all cost about the same. *)
let shard_inputs =
  [| ("j2d5pt", Grid.F64, [| 384; 384 |], [| (2, 2); (2, 3); (2, 6); (3, 2); (3, 4); (4, 2); (4, 3); (4, 6) |]);
     ("star2d1r", Grid.F32, [| 640; 640 |], [| (2, 4); (4, 4) |]) |]

let sharded_workers seed =
  let round r exec =
    let st = rng seed (9000 + r) in
    Array.iteri
      (fun i (name, prec, dims, configs) ->
        let seed = input_seed seed r i in
        Array.iter
          (fun (shards, bt) ->
            ignore
              (exec
                 (sim ~bench:name ~prec ~dims ~bt ~bs:[| 256 |] ~steps:12 ~seed ~shards ~workers:2
                    ~verify:false ~check:true ())))
          (shuffle st configs))
      shard_inputs
  in
  { name = "sharded_workers"; workers = 2; fill = []; max_rounds = 1000; round_s = 1.0; replay_rounds = 1; round }

let all = [ "cold_verified"; "tune_sweep"; "warm_repeat"; "sharded_workers" ]

let make name seed =
  match name with
  | "cold_verified" -> Some (cold_verified seed)
  | "tune_sweep" -> Some (tune_sweep seed)
  | "warm_repeat" -> Some (warm_repeat seed)
  | "sharded_workers" -> Some (sharded_workers seed)
  | _ -> None

let rounds t ~seconds = max 1 (min t.max_rounds (int_of_float (Float.ceil (seconds /. t.round_s))))
