(* The traced run's in-process replay. Each request is replayed by
   calling the layers' public functions from here, each call wrapped in
   a span of the benchmark's own ("wire.decode", "executor", ...), so
   the per-layer times are the program's own functions timed from
   outside. A request's layer times are subtracted from its replay time
   to give the unattributed rest. *)

module Wire = An5d_serve.Wire
module Request = An5d_serve.Request
module Session = An5d_serve.Session
module Workers = An5d_serve.Workers
module Framework = An5d_core.Framework
module Blocking = An5d_core.Blocking
module Grid = Stencil.Grid
module W = Workload

type t = {
  session : Session.t option;  (** warm_repeat replays through a primed session *)
  workers : Workers.t option;
  winners : (string, string * An5d_core.Config.t) Hashtbl.t;
      (** transfer key -> (device, winner), as the session keeps it *)
  times : (string, float list ref) Hashtbl.t;  (** layer -> durations, s *)
  counts : (string, float ref) Hashtbl.t;  (** summed counts *)
  probes : bool;  (** also run the probes outside the requests *)
  mutable in_request : float;  (** layer time of the current request *)
  mutable busy : float;  (** summed replay time of the requests, s *)
  mutable unattributed : float list;
}

let create ?session ?workers ~probes () =
  { session; workers; winners = Hashtbl.create 8; times = Hashtbl.create 32;
    counts = Hashtbl.create 32; probes; in_request = 0.0; busy = 0.0; unattributed = [] }

let now = Unix.gettimeofday

let record t name dt =
  match Hashtbl.find_opt t.times name with
  | Some l -> l := dt :: !l
  | None -> Hashtbl.replace t.times name (ref [ dt ])

let count t name v =
  match Hashtbl.find_opt t.counts name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace t.counts name (ref v)

let times t name = match Hashtbl.find_opt t.times name with Some l -> !l | None -> []

let counted t name = match Hashtbl.find_opt t.counts name with Some r -> !r | None -> 0.0

(* A layer call inside a request: spanned, timed, attributed. *)
let layer t name f =
  let t0 = now () in
  let r = Obs.Trace.with_span name f in
  let dt = now () -. t0 in
  record t name dt;
  t.in_request <- t.in_request +. dt;
  r

(* A layer probe outside any request (not attributed). *)
let probe t name f =
  let t0 = now () in
  let r = Obs.Trace.with_span name f in
  record t name (now () -. t0);
  r

let metric name = Obs.Metrics.get_counter (Obs.Metrics.snapshot ()) name

let counters_json (c : Gpu.Counters.t) =
  Wire.Obj
    [ ("gm_reads", Wire.Int c.gm_reads); ("gm_writes", Wire.Int c.gm_writes);
      ("sm_reads", Wire.Int c.sm_reads); ("sm_writes", Wire.Int c.sm_writes);
      ("fma", Wire.Int c.fma); ("mul", Wire.Int c.mul); ("add", Wire.Int c.add);
      ("other", Wire.Int c.other); ("kernel_launches", Wire.Int c.kernel_launches);
      ("barriers", Wire.Int c.barriers); ("cells_updated", Wire.Int c.cells_updated) ]

let add_counters t (c : Gpu.Counters.t) =
  count t "sim.gm_words" (float_of_int (Gpu.Counters.gm_words c));
  count t "sim.sm_words" (float_of_int (Gpu.Counters.sm_words c));
  count t "sim.flops" (float_of_int (Gpu.Counters.weighted_flops c));
  count t "sim.kernel_launches" (float_of_int c.kernel_launches);
  count t "sim.cells_updated" (float_of_int c.cells_updated)

let launch_json (s : Blocking.launch_stats) =
  Wire.Obj
    [ ("n_tb", Wire.Int s.n_tb); ("n_stream_blocks", Wire.Int s.n_stream_blocks);
      ("n_thr", Wire.Int s.n_thr); ("smem_bytes", Wire.Int s.smem_bytes);
      ("regs_per_thread", Wire.Int s.regs_per_thread); ("kernel_calls", Wire.Int s.kernel_calls) ]

let cfg_str c = Format.asprintf "%a" An5d_core.Config.pp c

(* The payloads as the server renders them (Server.payload_json); the
   traced run checks each against the payload served for the same
   request line, so a drift between the two fails the run. *)
let sim_payload (o : Framework.outcome) config =
  Wire.Obj
    [ ("kind", Wire.Str "simulate"); ("config", Wire.Str (cfg_str config));
      ("grid_digest", Wire.Str (Grid.digest o.result));
      ( "verified",
        match o.verified with
        | Ok () -> Wire.Str "ok"
        | Error d -> Wire.Obj [ ("max_abs_deviation", Wire.Float d) ] );
      ("counters", counters_json o.counters); ("launch", launch_json o.stats) ]

let tune_payload (r : Model.Tuner.result) =
  Wire.Obj
    [ ("kind", Wire.Str "tune"); ("best", Wire.Str (cfg_str r.best));
      ("gflops", Wire.Float r.tuned.Model.Measure.gflops);
      ("model_gflops", Wire.Float r.model_gflops); ("explored", Wire.Int r.explored);
      ("pruned", Wire.Int r.pruned);
      ("seeded", match r.seeded with None -> Wire.Null | Some c -> Wire.Str (cfg_str c)) ]

let payload_of = function
  | Session.Compiled { cuda; _ } -> Wire.Obj [ ("kind", Wire.Str "compile"); ("cuda", Wire.Str cuda) ]
  | Session.Simulated { outcome; config } -> sim_payload outcome config
  | Session.Tuned r -> tune_payload r

(* Front end of a compile or simulate: parse, detect, configure. *)
let front t (spec : Request.spec) =
  let prog = layer t "cparse" (fun () -> Cparse.Parser.program_of_string spec.source.text) in
  let detection = layer t "detect" (fun () -> Stencil.Detect.of_program prog) in
  let dims =
    match (spec.dims, detection.grid_dims) with
    | Some d, _ | None, Some d -> d
    | None, None -> failwith "dynamic grid sizes"
  in
  let prec = Option.value spec.prec ~default:detection.elem_prec in
  { Framework.detection; config = spec.config; prec; dims }

let cells_of dims steps = float_of_int (Array.fold_left ( * ) 1 dims * steps)

let direct t (req : Request.t) =
  match req.body with
  | Request.Compile spec ->
      let job = front t spec in
      let cuda = layer t "codegen" (fun () -> Framework.cuda_source job) in
      record t "codegen.bytes" (float_of_int (String.length cuda));
      fun () -> Wire.Obj [ ("kind", Wire.Str "compile"); ("cuda", Wire.Str cuda) ]
  | Request.Simulate { spec; device; steps; seed; run } when run.shards > 1 && run.workers > 1 -> (
      let job = front t spec in
      match t.workers with
      | None -> failwith "no worker registry"
      | Some reg ->
          let wire0 = metric "halo_bytes_on_wire" and retry0 = metric "worker_retries" in
          let o =
            layer t "workers" (fun () -> Workers.simulate reg ~spec ~job ~device ~steps ~seed ~run)
          in
          count t "workers.wire_bytes" (float_of_int (metric "halo_bytes_on_wire" - wire0));
          count t "workers.retries" (float_of_int (metric "worker_retries" - retry0));
          add_counters t o.counters;
          fun () -> sim_payload o spec.config)
  | Request.Simulate { spec; device; steps; seed; run } ->
      let job = front t spec in
      let grid = layer t "grid" (fun () -> Grid.init_random ~prec:job.prec ~seed job.dims) in
      let machine = Gpu.Machine.create ~prec:job.prec device in
      let em = Framework.execmodel job in
      let result, stats =
        layer t "executor" (fun () ->
            Blocking.run_cfg (An5d_core.Run_config.with_domains 1 run) em ~machine ~steps grid)
      in
      count t "executor.cells" (cells_of job.dims steps);
      let verified =
        if not run.verify then Ok ()
        else
          layer t "reference" (fun () ->
              let r = Stencil.Reference.run (Framework.pattern job) ~steps grid in
              let d = Grid.max_abs_diff r result in
              if d = 0.0 then Ok () else Error d)
      in
      if run.verify then count t "reference.cells" (cells_of job.dims steps);
      add_counters t machine.counters;
      fun () ->
        sim_payload { Framework.result; stats; counters = machine.counters; verified } spec.config
  | Request.Tune { pattern; device; prec; dims; steps; k; _ } ->
      let tkey = Request.transfer_key req in
      let seed_config =
        match Option.bind tkey (Hashtbl.find_opt t.winners) with
        | Some (dev, c) when dev <> device.Gpu.Device.name -> Some c
        | _ -> None
      in
      let r =
        layer t "model" (fun () ->
            Model.Tuner.tune_cfg ?seed_config ~k device ~prec pattern ~dims_sizes:dims ~steps)
      in
      Option.iter (fun k -> Hashtbl.replace t.winners k (device.Gpu.Device.name, r.best)) tkey;
      record t "tuner.explored" (float_of_int r.explored);
      record t "tuner.measured" (float_of_int (List.length r.top));
      if r.seeded <> None then count t "tuner.seeded" 1.0;
      fun () -> tune_payload r

(* The in-process shard path for the same request, as a probe: it
   gives the halo counts and the time of Blocking.run_sharded. *)
let shard_probe t (req : Request.t) =
  match req.body with
  | Request.Simulate { spec; device; steps; seed; run } when run.shards > 1 ->
      let job = Framework.compile ?dims:spec.dims ?prec:spec.prec ~config:spec.config spec.source in
      let grid = Grid.init_random ~prec:job.prec ~seed job.dims in
      let machine = Gpu.Machine.create ~prec:job.prec device in
      let ex0 = metric "halo_exchanges" and w0 = metric "halo_words_exchanged" in
      ignore
        (probe t "shard" (fun () ->
             Blocking.run_sharded (An5d_core.Run_config.with_domains 1 run)
               (Framework.execmodel job) ~machine ~steps grid));
      count t "shard.halo_exchanges" (float_of_int (metric "halo_exchanges" - ex0));
      count t "shard.halo_words" (float_of_int (metric "halo_words_exchanged" - w0))
  | _ -> ()

(* Replay one request; returns the response as a client would see it.
   The response payload (with its grid digest) is built inside the
   encode layer, as the server builds it while answering. *)
let exec t (q : W.req) =
  let line = W.line q in
  let frame = Wire.encode_payload (Wire.Request { id = Some "r"; line }) in
  t.in_request <- 0.0;
  let t0 = now () in
  let req, resp =
    Obs.Trace.with_span "request" ~attrs:[ ("kind", Obs.Trace.Str (W.kind q)) ] @@ fun () ->
    ignore (layer t "wire.decode" (fun () -> Wire.decode_payload frame));
    let req =
      layer t "request.parse" (fun () ->
          match Request.of_line line with
          | Ok r ->
              ignore (Request.key r);
              r
          | Error e -> failwith e)
    in
    let status, served, payload =
      match t.session with
      | None -> ("done", "cold", direct t req)
      | Some s -> (
          let r = layer t "session" (fun () -> Session.submit s req) in
          let served =
            match r.served with Session.Warm -> "warm" | Session.Cold -> "cold" | Session.Coalesced -> "coalesced"
          in
          if served = "warm" && W.kind q <> "compile" then
            record t "session.hit" (List.hd (times t "session"));
          match r.status with
          | Session.Done p ->
              (match p with
              | Session.Simulated { outcome; _ } -> add_counters t outcome.counters
              | _ -> ());
              ("done", served, fun () -> payload_of p)
          | Session.Degraded (p, _) -> ("degraded", served, fun () -> payload_of p)
          | Session.Cancelled -> ("cancelled", served, fun () -> Wire.Null)
          | Session.Failed m -> ("failed", served, fun () -> Wire.Str m))
    in
    let payload =
      layer t "wire.encode" (fun () ->
          let payload = payload () in
          ignore (Wire.encode (Wire.Response { id = Some "r"; status; served; latency = 0.0; payload }));
          payload)
    in
    (req, { W.status; served; payload })
  in
  let dt = now () -. t0 in
  t.busy <- t.busy +. dt;
  t.unattributed <- (dt -. t.in_request) :: t.unattributed;
  (* Probes outside the request's own accounting: code generation that
     a session hit hides, and the in-process shard path. *)
  if t.probes then begin
    (match (t.session, req.body) with
    | Some _, Request.Compile spec ->
        let job = Framework.compile ?dims:spec.dims ?prec:spec.prec ~config:spec.config spec.source in
        let cuda = probe t "codegen" (fun () -> Framework.cuda_source job) in
        record t "codegen.bytes" (float_of_int (String.length cuda))
    | _ -> ());
    shard_probe t req
  end;
  resp
