(* The end-to-end benchmark program. See README.md in this directory.

   e2e.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 serves the workload through an [an5d serve --socket]
   process and prints the end-to-end metrics; --trace 1 serves it the
   same way, then replays it in-process with spans around every layer
   call and prints the per-layer metrics. The last line of standard
   output is the JSON result. *)

module Wire = An5d_serve.Wire
module W = Workload

let now = Unix.gettimeofday

let work_dir = ".e2ebench"

(* Built by run.sh next to this program. *)
let server_exe = "_build/default/bin/an5d.exe"

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let sum = List.fold_left ( +. ) 0.0

(* ------------------------------------------------------------------ *)
(* Served run                                                          *)
(* ------------------------------------------------------------------ *)

(* [latency] is raw until its batch is calibrated, then scaled. *)
type sample = { mutable latency : float; cells : float }

type served = {
  samples : sample list;
  setups : float list;  (** calibrated set-up times, s *)
  calibs : float list;  (** raw calibration times, ms *)
  peak_rss_mb : float;
  attempted : int;
  failed : int;
  stats : Wire.json;
  log : (W.req * W.resp) list;  (** every response, in order *)
}

let n_setups = 7

let serve ~exe ~(wl : W.t) ~seconds =
  let sock = Filename.concat work_dir (Printf.sprintf "s%d.sock" (Unix.getpid ())) in
  let log = Filename.concat work_dir "server.log" in
  let calibs = ref [] in
  let calibrate () =
    let c = Calib.measure () in
    calibs := c :: !calibs;
    c
  in
  let attempted = ref 0 and failed = ref 0 and log_rev = ref [] in
  let send srv q =
    incr attempted;
    let r = Client.send srv ~id:(string_of_int !attempted) (W.line q) in
    if r.W.status <> "done" then incr failed;
    log_rev := (q, r) :: !log_rev;
    r
  in
  (* Set-up: server start, worker spawn and handshake, cache fill and
     calibration warm-up, repeated; the last server is kept. *)
  Calib.warm_up ();
  let setup () =
    let c0 = calibrate () in
    let t0 = now () in
    let srv = Client.start ~exe ~sock ~log ~workers:wl.workers in
    (try List.iter (fun q -> ignore (send srv q)) wl.fill
     with e ->
       Client.stop srv;
       raise e);
    Calib.warm_up ();
    let dt = now () -. t0 in
    (srv, dt *. Calib.factor c0 (calibrate ()))
  in
  let rec setups k acc =
    let srv, dt = setup () in
    if k = n_setups then (srv, List.rev (dt :: acc))
    else begin
      Client.stop srv;
      attempted := 0;
      failed := 0;
      log_rev := [];
      setups (k + 1) (dt :: acc)
    end
  in
  let srv, setup_times = setups 1 [] in
  Fun.protect ~finally:(fun () -> Client.stop srv) @@ fun () ->
  (* Timed phase: a fixed number of whole rounds. Requests are
     calibrated in batches of at least 30 ms, by the mean of the
     calibrations just before and just after the batch. *)
  let samples = ref [] and batch = ref [] in
  let c_prev = ref (calibrate ()) in
  let batch_t0 = ref (now ()) in
  let flush () =
    if !batch <> [] then begin
      let c = calibrate () in
      let f = Calib.factor !c_prev c in
      List.iter (fun s -> s.latency <- s.latency *. f) !batch;
      samples := !batch @ !samples;
      batch := [];
      c_prev := c;
      batch_t0 := now ()
    end
  in
  let exec q =
    let t0 = now () in
    let r = send srv q in
    let dt = now () -. t0 in
    batch := { latency = dt; cells = W.cells q } :: !batch;
    if now () -. !batch_t0 >= 0.03 then flush ();
    r
  in
  (* A host more than four times slower than usual stops early, after
     a whole round, so that a run still ends within its time limit. *)
  let t_start = now () in
  let rec rounds r =
    if r < W.rounds wl ~seconds && (r = 0 || now () -. t_start < 4.0 *. seconds) then begin
      wl.round r exec;
      rounds (r + 1)
    end
  in
  rounds 0;
  flush ();
  let peak_rss_mb = Client.peak_rss_mb srv in
  let stats = Client.stats srv in
  { samples = !samples; setups = setup_times; calibs = !calibs; peak_rss_mb;
    attempted = !attempted; failed = !failed; stats; log = List.rev !log_rev }

(* ------------------------------------------------------------------ *)
(* Checks after the timed phase                                        *)
(* ------------------------------------------------------------------ *)

let check_all (wl : W.t) (s : served) =
  let ck = Checks.create () in
  let seen = Hashtbl.create 256 in
  let expected = Hashtbl.create 64 in
  let n_fill = List.length wl.fill in
  List.iteri
    (fun i (q, (r : W.resp)) ->
      ignore (Checks.response ck q r);
      if r.status = "done" then begin
        (* the same request must always be answered with the same bits *)
        let line = W.line q and body = Wire.json_to_string r.payload in
        (match Hashtbl.find_opt seen line with
        | Some b when b <> body -> Checks.fail ck "%s: answer differs from the first answer" line
        | Some _ -> ()
        | None -> Hashtbl.replace seen line body);
        (* after a fill, the timed phase must run on cache hits *)
        if n_fill > 0 && i >= n_fill && r.served <> "warm" then
          Checks.fail ck "%s: served %s after the caches were filled" line r.served;
        match q with
        | W.Sim sim when sim.check ->
            let key = W.input_key sim in
            let want =
              match Hashtbl.find_opt expected key with
              | Some d -> d
              | None ->
                  let d =
                    Evaluator.digest (W.bench sim.bench).Bench_defs.Benchmarks.pattern
                      ~prec:sim.prec ~seed:sim.seed ~steps:sim.steps sim.dims
                  in
                  Hashtbl.replace expected key d;
                  d
            in
            if Checks.str_field "grid_digest" r.payload <> want then
              Checks.fail ck "%s: grid digest differs from the independent evaluator" line
        | _ -> ()
      end)
    s.log;
  ck

(* Share of verified simulate requests whose input already occurred. *)
let input_repeat_share (s : served) =
  let seen = Hashtbl.create 64 in
  let verified, repeats =
    List.fold_left
      (fun (v, rep) (q, _) ->
        match q with
        | W.Sim sim when sim.verify ->
            let k = W.input_key sim in
            let rep = if Hashtbl.mem seen k then rep + 1 else rep in
            Hashtbl.replace seen k ();
            (v + 1, rep)
        | _ -> (v, rep))
      (0, 0) s.log
  in
  if verified = 0 then 0.0 else float_of_int repeats /. float_of_int verified

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let end_to_end (s : served) =
  let lat = List.map (fun x -> x.latency) s.samples in
  let busy = sum lat in
  [ ("setup_s", median s.setups, "s");
    ("requests_per_s", float_of_int (List.length lat) /. busy, "1/s");
    ("latency_p50_ms", 1e3 *. median lat, "ms");
    ("latency_p90_ms", 1e3 *. percentile 0.9 lat, "ms");
    ("cells_per_s", sum (List.map (fun x -> x.cells) s.samples) /. busy, "1/s");
    ("peak_rss_mb", s.peak_rss_mb, "MiB") ]

let jfield path j =
  List.fold_left (fun j k -> match j with Some j -> Checks.field k j | None -> None) (Some j) path

let jint path j = match jfield path j with Some (Wire.Int n) -> float_of_int n | _ -> 0.0

let per_layer ~exe ~(wl : W.t) (s : served) ck =
  let stats = s.stats in
  let cache name k = jint [ "caches"; name; k ] stats in
  let shed =
    match jfield [ "admission" ] stats with
    | Some (Wire.Obj clients) -> sum (List.map (fun (_, c) -> jint [ "shed" ] c) clients)
    | _ -> 0.0
  in
  (* The size of every served response frame, and the payload served
     first for each request line, which every replay must reproduce. *)
  let served = Hashtbl.create 256 and response_bytes = ref [] in
  List.iter
    (fun (q, (r : W.resp)) ->
      if r.status = "done" then begin
        let frame =
          Wire.Response { id = Some "r"; status = r.status; served = r.served; latency = 0.0; payload = r.payload }
        in
        response_bytes := float_of_int (String.length (Wire.encode frame)) :: !response_bytes;
        if not (Hashtbl.mem served (W.line q)) then
          Hashtbl.replace served (W.line q) (Wire.json_to_string r.payload)
      end)
    s.log;
  (* Replay the first rounds of the same stream in-process: once to
     warm up (memoized plans, heap), then three untraced/traced pairs.
     The tracing overhead is the median over the pairs of the traced
     replay's request time against the untraced one's; the last traced
     replay, with the probes, gives the per-layer numbers and the
     Chrome trace. *)
  let workers =
    if wl.workers > 1 then Some (An5d_serve.Workers.create ~spawn:(An5d_serve.Workers.Exec [| exe; "worker" |]) wl.workers)
    else None
  in
  Fun.protect ~finally:(fun () -> Option.iter An5d_serve.Workers.shutdown workers) @@ fun () ->
  let replay ~traced ~probes =
    let session =
      if wl.fill = [] then None
      else begin
        let s = An5d_serve.Session.create () in
        List.iter
          (fun q ->
            match An5d_serve.Request.of_line (W.line q) with
            | Ok r -> ignore (An5d_serve.Session.submit s r)
            | Error e -> Checks.fail ck "%s: %s" (W.line q) e)
          wl.fill;
        Some s
      end
    in
    let t = Traced.create ?session ?workers ~probes () in
    if traced then begin
      Obs.Trace.clear ();
      Obs.Trace.set_enabled true
    end;
    let c0 = Calib.measure () in
    for r = 0 to wl.replay_rounds - 1 do
      wl.round r (fun q ->
          let resp = Traced.exec t q in
          if Checks.response ck q resp then Checks.fail ck "%s: replay %s" (W.line q) resp.status
          else if Hashtbl.find_opt served (W.line q) <> Some (Wire.json_to_string resp.payload) then
            Checks.fail ck "%s: replayed payload differs from the served one" (W.line q);
          resp)
    done;
    Obs.Trace.set_enabled false;
    let f = Calib.factor c0 (Calib.measure ()) in
    Option.iter An5d_serve.Session.shutdown session;
    (t, f)
  in
  ignore (replay ~traced:false ~probes:false);
  let pair i =
    let u, fu = replay ~traced:false ~probes:false in
    let t, ft = replay ~traced:true ~probes:(i = 2) in
    ((t.Traced.busy *. ft /. (u.Traced.busy *. fu)) -. 1.0, t, ft)
  in
  let pairs = List.init 3 pair in
  let overhead = median (List.map (fun (o, _, _) -> o) pairs) in
  let _, t, f = List.nth pairs 2 in
  let chrome = Obs.Export.chrome_json (Obs.Trace.events ()) in
  let path = Filename.concat work_dir (Printf.sprintf "trace-%s.json" wl.name) in
  Out_channel.with_open_bin path (fun oc -> output_string oc chrome);
  (match Obs.Export.validate_chrome chrome with
  | Ok () -> ()
  | Error e -> Checks.fail ck "trace %s does not validate: %s" path e);
  Obs.Trace.clear ();
  let med name scale = scale *. f *. median (Traced.times t name) in
  let rate cells name =
    let busy = f *. sum (Traced.times t name) in
    if busy = 0.0 then 0.0 else Traced.counted t cells /. busy
  in
  [ ("wire.decode_us", med "wire.decode" 1e6, "us");
    ("wire.encode_us", med "wire.encode" 1e6, "us");
    ("wire.response_bytes", median !response_bytes, "bytes");
    ("request.parse_us", med "request.parse" 1e6, "us");
    ("session.hit_us", med "session.hit" 1e6, "us");
    ("cache.outcome_hits", cache "outcome" "hits", "count");
    ("cache.outcome_misses", cache "outcome" "misses", "count");
    ("cache.job_hits", cache "job" "hits", "count");
    ("cache.job_misses", cache "job" "misses", "count");
    ("cache.tune_hits", cache "tune" "hits", "count");
    ("cache.tune_misses", cache "tune" "misses", "count");
    ( "cache.evictions",
      cache "outcome" "evictions" +. cache "job" "evictions" +. cache "tune" "evictions",
      "count" );
    ("admission.shed", shed, "count");
    ("cparse.parse_ms", med "cparse" 1e3, "ms");
    ("detect.ms", med "detect" 1e3, "ms");
    ("codegen.ms", med "codegen" 1e3, "ms");
    ("codegen.bytes", median (Traced.times t "codegen.bytes"), "bytes");
    ("tuner.tune_ms", med "model" 1e3, "ms");
    ("tuner.explored", median (Traced.times t "tuner.explored"), "count");
    ("tuner.measured", median (Traced.times t "tuner.measured"), "count");
    ("tuner.seeded", Traced.counted t "tuner.seeded", "count");
    ("grid.init_ms", med "grid" 1e3, "ms");
    ("executor.ms", med "executor" 1e3, "ms");
    ("executor.cells_per_s", rate "executor.cells" "executor", "1/s");
    ("verify.ms", med "reference" 1e3, "ms");
    ("reference.cells_per_s", rate "reference.cells" "reference", "1/s");
    ("verify.input_repeat_share", input_repeat_share s, "share");
    ("sim.gm_words", Traced.counted t "sim.gm_words", "count");
    ("sim.sm_words", Traced.counted t "sim.sm_words", "count");
    ("sim.flops", Traced.counted t "sim.flops", "count");
    ("sim.kernel_launches", Traced.counted t "sim.kernel_launches", "count");
    ("sim.cells_updated", Traced.counted t "sim.cells_updated", "count");
    ("shard.ms", med "shard" 1e3, "ms");
    ("shard.halo_exchanges", Traced.counted t "shard.halo_exchanges", "count");
    ("shard.halo_words", Traced.counted t "shard.halo_words", "count");
    ("workers.ms", med "workers" 1e3, "ms");
    ("workers.wire_bytes", Traced.counted t "workers.wire_bytes", "bytes");
    ("workers.retries", Traced.counted t "workers.retries", "count");
    ("unattributed_ms", 1e3 *. f *. median t.unattributed, "ms");
    ("trace.overhead_pct", 100.0 *. overhead, "%");
    ("calib.ms", median s.calibs, "ms") ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: e2e.exe --workload NAME --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int k = match Option.bind (get k) int_of_string_opt with Some n -> n | None -> usage () in
  let workload = match get "workload" with Some w -> w | None -> usage () in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  let exe = server_exe in
  let wl =
    match W.make workload seed with
    | Some wl -> wl
    | None ->
        Printf.eprintf "unknown workload %s (one of %s)\n" workload (String.concat ", " W.all);
        exit 2
  in
  if not (Sys.file_exists exe) then begin
    Printf.eprintf "server binary %s not found\n" exe;
    exit 2
  end;
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  (* SIGTERM/SIGINT unwind through the server's Fun.protect, so no
     server or worker process outlives an interrupted run. *)
  let interrupt _ = failwith "interrupted" in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupt);
  Sys.set_signal Sys.sigint (Sys.Signal_handle interrupt);
  (* A vanished server or worker must surface as a write error, not
     kill the benchmark (the traced run holds its own worker registry). *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t0 = now () in
  let s = serve ~exe ~wl ~seconds:(float_of_int seconds) in
  let t1 = now () in
  let ck = check_all wl s in
  Printf.eprintf "e2e: served in %.1f s, checked in %.1f s\n%!" (t1 -. t0) (now () -. t1);
  let metrics = if trace = 0 then end_to_end s else per_layer ~exe ~wl s ck in
  Printf.printf "workload %s: %d requests attempted, %d failed, %d check failures\n" wl.name
    s.attempted s.failed ck.failures;
  List.iter (fun n -> Printf.printf "check failed: %s\n" n) (List.rev ck.notes);
  let json =
    Wire.Obj
      [ ("correct", Wire.Bool (ck.failures = 0)); ("attempted", Wire.Int s.attempted);
        ("failed", Wire.Int s.failed);
        ( "metrics",
          Wire.Obj
            (List.map
               (fun (name, v, unit) -> (name, Wire.Obj [ ("value", Wire.Float v); ("unit", Wire.Str unit) ]))
               metrics) ) ]
  in
  print_endline (Wire.json_to_string json);
  if s.failed > 0 || ck.failures > 0 then exit 1
