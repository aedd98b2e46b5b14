(** Ablations of TVA's design choices, beyond the paper's headline figures
    (each backs a claim the paper makes in prose).  Every variant is one
    {!Experiment.run} on the standard dumbbell; the attacks the harness
    does not model are {!Experiment.Custom} ones.

    - {!queueing_discipline}: Sec. 7's spoofed-authorized-traffic attack.
      An attacker spoofs sender S's address, gets a colluder to authorize
      the spoofed flow, and floods.  With per-{e source} fair queueing the
      flood shares S's queue and starves S; with TVA's default
      per-{e destination} queueing S is unaffected.

    - {!state_provisioning}: Sec. 3.6's sizing rule.  A flow cache
      provisioned at [C/(N/T)_min] records cannot be exhausted — flows
      must sustain at least [N/T] each to keep a record alive, and the
      link fits only that many.  An under-provisioned cache, by contrast,
      lets attacker flows crowd out the legitimate user's entry and demote
      its traffic.

    - {!request_queueing}: Sec. 3.9's argument for bounded per-path-id
      queues over stochastic fair queueing: with few SFQ buckets, request
      floods land in every bucket and crowd out legitimate requests that
      share one; per-path-id queues isolate them. *)

type comparison = {
  label_a : string;
  result_a : Experiment.result;
  label_b : string;
  result_b : Experiment.result;
}

val queueing_discipline :
  ?jobs:int ->
  ?n_attackers:int ->
  ?transfers:int ->
  ?max_time:float ->
  ?seed:int ->
  unit ->
  comparison
(** [result_a]: per-destination (TVA default); [result_b]: per-source.
    Metrics are for the spoofed victim S (user 0).  [jobs >= 2] runs the
    two variants on parallel domains via {!Pool.map}; output is identical
    either way. *)

val state_provisioning :
  ?jobs:int ->
  ?n_attacker_flows:int ->
  ?transfers:int ->
  ?max_time:float ->
  ?seed:int ->
  unit ->
  comparison
(** [result_a]: cache provisioned per the paper's rule; [result_b]: a
    64-entry cache under the same attacker flow load. *)

val request_queueing :
  ?jobs:int ->
  ?n_attackers:int ->
  ?buckets:int ->
  ?transfers:int ->
  ?max_time:float ->
  ?seed:int ->
  unit ->
  comparison
(** [result_a]: per-path-id DRR; [result_b]: SFQ over [buckets] (default 8)
    buckets, both under a request flood. *)

val render : comparison -> Stats.Table.t
