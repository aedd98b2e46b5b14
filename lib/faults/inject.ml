type link_site = { ls_label : string; ls_class : Spec.link_target; ls_link : Net.link }

type router_site = {
  rs_name : string;
  rs_node : Net.node;
  rs_wipe_cache : unit -> unit;
  rs_rotate_secret : unit -> unit;
}

type env = {
  env_sim : Sim.t;
  env_rng : Rng.t;
  env_links : link_site list;
  env_routers : router_site list;
  env_obs : Obs.Counters.t;
}

type t = { counts : (string * int ref) list }

let link_sites topo =
  List.map
    (fun (label, link) ->
      let cls =
        match label with
        | "bottleneck" -> Spec.Bottleneck
        | "rbottleneck" -> Spec.Bottleneck_rev
        | _ -> Spec.Access_links
      in
      { ls_label = label; ls_class = cls; ls_link = link })
    (Topology.labeled_links topo)

let link_selected (lt : Spec.link_target) site =
  match lt with Spec.All_links -> true | lt -> lt = site.ls_class

let router_selected (rt : Spec.router_target) site =
  match rt with
  | Spec.All_routers -> true
  | Spec.Left -> String.length site.rs_name >= 4 && String.sub site.rs_name 0 4 = "left"
  | Spec.Right -> String.length site.rs_name >= 5 && String.sub site.rs_name 0 5 = "right"

(* One control-event firing: the clause's own count plus the obs event
   (packet-level faults are instead counted by the Net bridge off
   [Link_fault], so the injector must not also count them there). *)
let fire env cnt =
  incr cnt;
  Obs.Counters.incr env.env_obs Obs.Event.Fault_injected

let schedule_at env ~time f =
  Sim.schedule_at ~kind:Sim.Kind.fault env.env_sim ~time f

(* Per-link model accumulation: clauses targeting the same link compose.
   Every model runs on every packet — its state and rng consumption stay
   independent of the other clauses — and the earliest non-pass decision
   is applied (and counted against its clause alone). *)
let add_model hooks link cnt model =
  let models =
    match List.assq_opt link !hooks with
    | Some ms -> ms
    | None ->
        let ms = ref [] in
        hooks := (link, ms) :: !hooks;
        ms
  in
  models := (cnt, model) :: !models

let install_packet_clause env hooks cnt lt make_model =
  List.iter
    (fun site ->
      if link_selected lt site then
        (* One stream per (clause, link), split in deterministic order. *)
        add_model hooks site.ls_link cnt (make_model (Rng.split env.env_rng)))
    env.env_links

let down_window env cnt link ~at ~dur =
  schedule_at env ~time:at (fun () ->
      fire env cnt;
      Net.link_set_up link false);
  schedule_at env ~time:(at +. dur) (fun () -> Net.link_set_up link true)

let install_flap env cnt link ~at ~until ~period ~down =
  let rec edge k =
    let t0 = at +. (float_of_int k *. period) in
    if t0 < until then
      schedule_at env ~time:t0 (fun () ->
          fire env cnt;
          Net.link_set_up link false;
          schedule_at env ~time:(Float.min until (t0 +. down)) (fun () ->
              Net.link_set_up link true);
          edge (k + 1))
  in
  edge 0

let install_repeating env cnt ~at ~every action =
  let rec go time =
    schedule_at env ~time (fun () ->
        fire env cnt;
        action ();
        match every with Some e when e > 0. -> go (time +. e) | Some _ | None -> ())
  in
  go at

let install_restart env cnt site ~at ~dur =
  let links = Net.links_into site.rs_node @ Net.links_out_of site.rs_node in
  schedule_at env ~time:at (fun () ->
      fire env cnt;
      site.rs_wipe_cache ();
      site.rs_rotate_secret ();
      List.iter (fun l -> Net.link_set_up l false) links);
  schedule_at env ~time:(at +. dur) (fun () ->
      List.iter (fun l -> Net.link_set_up l true) links)

let install_clause env hooks (c : Spec.clause) =
  let cnt = ref 0 in
  (match (c.Spec.kind, c.Spec.target) with
  | Spec.Loss { p }, Spec.Link lt ->
      install_packet_clause env hooks cnt lt (fun rng ->
          Link_model.bernoulli ~rng ~p ~action:Net.Fault_lose)
  | Spec.Corrupt { p }, Spec.Link lt ->
      install_packet_clause env hooks cnt lt (fun rng ->
          Link_model.bernoulli ~rng ~p ~action:Net.Fault_lose)
  | Spec.Dup { p }, Spec.Link lt ->
      install_packet_clause env hooks cnt lt (fun rng ->
          Link_model.bernoulli ~rng ~p ~action:Net.Fault_dup)
  | Spec.Burst { p_gb; p_bg; p_bad; p_good }, Spec.Link lt ->
      install_packet_clause env hooks cnt lt (fun rng ->
          Link_model.gilbert_elliott ~rng ~p_gb ~p_bg ~p_bad ~p_good)
  | Spec.Reorder { p; delay }, Spec.Link lt ->
      install_packet_clause env hooks cnt lt (fun rng -> Link_model.reorder ~rng ~p ~delay)
  | Spec.Down { at; dur }, Spec.Link lt ->
      List.iter
        (fun site -> if link_selected lt site then down_window env cnt site.ls_link ~at ~dur)
        env.env_links
  | Spec.Flap { at; until; period; down }, Spec.Link lt ->
      List.iter
        (fun site ->
          if link_selected lt site then install_flap env cnt site.ls_link ~at ~until ~period ~down)
        env.env_links
  | Spec.Wipe { at; every }, Spec.Router rt ->
      let selected = List.filter (router_selected rt) env.env_routers in
      if selected <> [] then
        install_repeating env cnt ~at ~every (fun () ->
            List.iter (fun s -> s.rs_wipe_cache ()) selected)
  | Spec.Rotate { at; every }, Spec.Router rt ->
      let selected = List.filter (router_selected rt) env.env_routers in
      if selected <> [] then
        install_repeating env cnt ~at ~every (fun () ->
            List.iter (fun s -> s.rs_rotate_secret ()) selected)
  | Spec.Restart { at; dur }, Spec.Router rt ->
      List.iter
        (fun site -> if router_selected rt site then install_restart env cnt site ~at ~dur)
        env.env_routers
  | ( ( Spec.Loss _ | Spec.Burst _ | Spec.Corrupt _ | Spec.Dup _ | Spec.Reorder _ | Spec.Down _
      | Spec.Flap _ ),
      Spec.Router _ )
  | (Spec.Wipe _ | Spec.Rotate _ | Spec.Restart _), Spec.Link _ ->
      (* [Spec.parse] never produces these pairings. *)
      invalid_arg ("Faults.Inject: kind/target mismatch in " ^ Spec.clause_to_string c));
  (Spec.clause_to_string c, cnt)

let install env spec =
  let hooks : (Net.link * (int ref * (Wire.Packet.t -> Net.fault_action)) list ref) list ref =
    ref []
  in
  let counts = List.map (install_clause env hooks) spec in
  List.iter
    (fun (link, models) ->
      (* [add_model] consed, so reverse back to spec order. *)
      let models = List.rev !models in
      Net.link_set_fault link
        (Some
           (fun p ->
             List.fold_left
               (fun acc (cnt, m) ->
                 let d = m p in
                 match (acc, d) with
                 | Net.Fault_pass, Net.Fault_pass -> acc
                 | Net.Fault_pass, d ->
                     incr cnt;
                     d
                 | _, _ -> acc)
               Net.Fault_pass models)))
    !hooks;
  { counts }

let injected t = List.map (fun (label, cnt) -> (label, !cnt)) t.counts
let total_injected t = List.fold_left (fun acc (_, cnt) -> acc + !cnt) 0 t.counts
