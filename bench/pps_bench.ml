(* Packets/sec through the router's per-packet paths (paper Sec. 6.1).

   Times one [Router.process] loop per pass over the packets of Table 1's
   driver ([Forwarder.Fastpath], on the simulator's SipHash binding) and
   reports, for each of the four paths a packet can take —

     cached-nonce  flow-cache hit on the 48-bit nonce (paper: ~33 ns)
     validate      capability listed in the packet, two hash checks
                   (paper: ~460 ns)
     request       pre-capability minted and appended
     legacy        no shim, counted straight through

   — the throughput and the minor-heap words allocated per packet, with
   the four paths timed in interleaved slices (see [slices]).  The
   driver's branch check makes the run FAIL (exit 1) if any packet leaves
   its path or is demoted.  The cached-nonce path is the line-rate path,
   so the benchmark also FAILS if it allocates more than [budget] minor
   words per packet; the same budget is pinned by a regression test in
   the test suite.

   Run with:            dune exec bench/pps_bench.exe
   Smoke mode (CI):     dune exec bench/pps_bench.exe -- --flows 64 --passes 50 *)

let flows = ref 1024
let passes = ref 512
let budget = ref 1.
let validate_budget = ref 7.
let request_budget = ref 13.
let out_path = ref "BENCH_pps.json"
let profile_out = ref ""

let spec =
  [
    ( "--flows",
      Arg.Set_int flows,
      Printf.sprintf "N  distinct (src,dst) flows, 1..%d (default 1024)" Forwarder.Fastpath.flows
    );
    ("--passes", Arg.Set_int passes, "K  timed passes over all flows per path (default 512)");
    ( "--budget",
      Arg.Set_float budget,
      "W  max minor words/packet on the cached-nonce path (default 1)" );
    ( "--validate-budget",
      Arg.Set_float validate_budget,
      "W  max minor words/packet on the validate path (default 7)" );
    ( "--request-budget",
      Arg.Set_float request_budget,
      "W  max minor words/packet on the request path (default 13)" );
    ("--out", Arg.Set_string out_path, "PATH  where to write the JSON report");
    ( "--profile-out",
      Arg.Set_string profile_out,
      "PATH  also write the per-stage ns budget report" );
  ]

let usage =
  "pps_bench [--flows N] [--passes K] [--budget W] [--validate-budget W] [--request-budget W] \
   [--out PATH] [--profile-out PATH]"

type measurement = { pps : float; ns_per_packet : float; minor_words_per_packet : float }

(* One timed path: two untimed warmup passes, then [slice n] times its
   next [n] passes (after one more untimed pass); [result] totals the
   slices. *)
type path = { warm : unit -> unit; slice : int -> unit; result : unit -> measurement }

(* The paths are timed in [slices] rounds.  Each round gives every path
   its next share of the passes, one path after the other, so a change in
   host load during the run (another tenant's burst on a shared core)
   falls on all four paths alike.  Timed whole and one after the other,
   the legacy path's few milliseconds could land in a quiet spell that
   the validate path's tenth of a second missed, and on a shared 2-core
   host its ratio below read anywhere from 20x to 38x on unchanged code. *)
let slices = 16

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !flows < 1 || !flows > Forwarder.Fastpath.flows then begin
    Printf.eprintf "pps_bench: --flows must be in 1..%d\n" Forwarder.Fastpath.flows;
    exit 2
  end;
  let flows = !flows and passes = max 1 !passes in
  let fp = Forwarder.Fastpath.create ~hash:(module Crypto.Keyed_hash.Fast) () in
  let router = Forwarder.Fastpath.router fp in
  Printf.printf "pps_bench: %d flows x %d passes per path\n%!" flows passes;
  (* One pass is one tight [Router.process] loop over the first [flows]
     of the driver's packets for [op].  Request and validate packets are
     rewound first (the router appends to and advances their shims);
     cached-nonce and legacy packets come back unchanged, so their loops
     do nothing else.  Two warmup passes keep the validate path's two
     nonce sets alternating from pass 0.  Each path counts its passes
     across slices, so that alternation runs on unbroken. *)
  let path op ~rewind =
    let next = ref 0 and wall = ref 0. and words = ref 0. in
    let per_pass () =
      let packets = Forwarder.Fastpath.packets fp op ~pass:!next in
      incr next;
      if rewind then
        for f = 0 to flows - 1 do
          let p = packets.(f) in
          Forwarder.Fastpath.rewind p;
          Tva.Router.process router ~in_interface:0 p
        done
      else
        for f = 0 to flows - 1 do
          Tva.Router.process router ~in_interface:0 packets.(f)
        done
    in
    (* [n] passes, with the Gc's minor-words counter read across the same
       loop so timing and allocation come from one run.  The collection
       and the untimed pass before them leave the heap clean and the
       path's packets and records back in cache, so a slice starts where
       the path would stand had it run alone. *)
    let run n =
      Gc.full_major ();
      per_pass ();
      let words0 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to n do
        per_pass ()
      done;
      wall := !wall +. (Unix.gettimeofday () -. t0);
      words := !words +. (Gc.minor_words () -. words0)
    in
    let on_branch n f =
      match Forwarder.Fastpath.on_branch fp op ~packets:(flows * n) f with
      | () -> ()
      | exception Failure msg ->
          Printf.eprintf "FATAL: %s\n" msg;
          exit 1
    in
    let warm () =
      on_branch 2 (fun () ->
          per_pass ();
          per_pass ())
    in
    let slice n = on_branch (n + 1) (fun () -> run n) in
    let result () =
      let packets = float_of_int (flows * passes) in
      {
        pps = packets /. !wall;
        ns_per_packet = !wall *. 1e9 /. packets;
        minor_words_per_packet = !words /. packets;
      }
    in
    { warm; slice; result }
  in
  let request = path Forwarder.Fastpath.Request ~rewind:true in
  let validate = path Forwarder.Fastpath.Regular_uncached ~rewind:true in
  let cached = path Forwarder.Fastpath.Regular_cached ~rewind:false in
  let legacy = path Forwarder.Fastpath.Legacy_forward ~rewind:false in
  let paths = [ request; validate; cached; legacy ] in
  List.iter (fun p -> p.warm ()) paths;
  let slices = min slices passes in
  for k = 0 to slices - 1 do
    (* Slice [k] of [passes]: the shares differ by at most one pass. *)
    let n = (passes * (k + 1) / slices) - (passes * k / slices) in
    List.iter (fun p -> p.slice n) paths
  done;
  let request_m = request.result () and validate_m = validate.result () in
  let cached_m = cached.result () and legacy_m = legacy.result () in

  (* --- report ---------------------------------------------------------- *)
  let pp_path name m =
    Printf.printf "  %-13s %10.0f pps  %8.1f ns/pkt  %6.2f minor words/pkt\n%!" name m.pps
      m.ns_per_packet m.minor_words_per_packet
  in
  pp_path "cached-nonce" cached_m;
  pp_path "validate" validate_m;
  pp_path "request" request_m;
  pp_path "legacy" legacy_m;
  let budget_ok = cached_m.minor_words_per_packet <= !budget in
  let validate_ok = validate_m.minor_words_per_packet <= !validate_budget in
  let request_ok = request_m.minor_words_per_packet <= !request_budget in
  let json_path name m =
    String.concat "\n"
      [
        Printf.sprintf "  \"%s\": {" name;
        Printf.sprintf "    \"pps\": %.0f," m.pps;
        Printf.sprintf "    \"ns_per_packet\": %.2f," m.ns_per_packet;
        Printf.sprintf "    \"minor_words_per_packet\": %.3f" m.minor_words_per_packet;
        "  }";
      ]
  in
  let json =
    String.concat "\n"
      [
        "{";
        "  \"benchmark\": \"router per-packet paths\",";
        Printf.sprintf "  \"flows\": %d," flows;
        Printf.sprintf "  \"passes\": %d," passes;
        Printf.sprintf "  \"packets_per_path\": %d," (flows * passes);
        json_path "cached_nonce" cached_m ^ ",";
        json_path "validate" validate_m ^ ",";
        json_path "request" request_m ^ ",";
        json_path "legacy" legacy_m ^ ",";
        Printf.sprintf "  \"cached_nonce_budget_words\": %g," !budget;
        Printf.sprintf "  \"cached_nonce_budget_ok\": %b," budget_ok;
        Printf.sprintf "  \"validate_budget_words\": %g," !validate_budget;
        Printf.sprintf "  \"validate_budget_ok\": %b," validate_ok;
        Printf.sprintf "  \"request_budget_words\": %g," !request_budget;
        Printf.sprintf "  \"request_budget_ok\": %b" request_ok;
        "}";
      ]
  in
  let oc = open_out !out_path in
  output_string oc json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "  -> %s\n%!" !out_path;
  let failed = ref false in
  let check_budget name actual limit =
    if actual > limit then begin
      Printf.eprintf "FATAL: %s path allocates %.2f minor words/packet (budget %g)\n" name actual
        limit;
      failed := true
    end
  in
  check_budget "cached-nonce" cached_m.minor_words_per_packet !budget;
  check_budget "validate" validate_m.minor_words_per_packet !validate_budget;
  check_budget "request" request_m.minor_words_per_packet !request_budget;
  (* --- per-stage ns budgets ---------------------------------------------- *)
  (* Each stage's ns/packet is accumulated in a [Stats.Summary] and gated
     as a multiple of the same report's legacy ns — the legacy path does
     no TVA work, so the ratio cancels machine speed and the budgets hold
     on slow CI runners.  The multipliers were set at about twice the
     ratios of an -opaque build; the release build runs the short legacy
     path relatively faster, so validate now sits near its budget
     (README, Sec. 6.1). *)
  let stages =
    [
      ("cached_nonce", cached_m.ns_per_packet, 10.);
      ("validate", validate_m.ns_per_packet, 25.);
      ("request", request_m.ns_per_packet, 20.);
    ]
  in
  let stage_rows =
    List.map
      (fun (name, ns, mult) ->
        let summary = Stats.Summary.create () in
        Stats.Summary.add summary ns;
        let ratio = ns /. legacy_m.ns_per_packet in
        let ok = ratio <= mult in
        if not ok then begin
          Printf.eprintf "FATAL: %s stage costs %.1fx legacy ns (budget %gx)\n" name ratio mult;
          failed := true
        end;
        (name, summary, ratio, mult, ok))
      stages
  in
  if !profile_out <> "" then begin
    let stage_json (name, summary, ratio, mult, ok) =
      let ns = Stats.Summary.mean summary in
      String.concat "\n"
        [
          Printf.sprintf "  \"%s\": {" name;
          Printf.sprintf "    \"ns_per_packet\": %.2f," ns;
          Printf.sprintf "    \"x_legacy\": %.2f," ratio;
          Printf.sprintf "    \"budget_x_legacy\": %g," mult;
          Printf.sprintf "    \"ok\": %b" ok;
          "  },";
        ]
    in
    let pj =
      String.concat "\n"
        ([
           "{";
           "  \"benchmark\": \"router per-stage ns budgets\",";
           Printf.sprintf "  \"legacy_ns_per_packet\": %.2f," legacy_m.ns_per_packet;
         ]
        @ List.map stage_json stage_rows
        @ [ Printf.sprintf "  \"all_ok\": %b" (List.for_all (fun (_, _, _, _, ok) -> ok) stage_rows); "}" ])
    in
    let oc = open_out !profile_out in
    output_string oc pj;
    output_char oc '\n';
    close_out oc;
    Printf.printf "  -> %s\n%!" !profile_out
  end;
  if !failed then exit 1
