(** Collection of the paper's two evaluation metrics (Sec. 5): the average
    fraction of completed transfers and the average time of the transfers
    that complete — plus the completion-time series that Fig. 11 plots. *)

type t

val create : unit -> t

val record_start : t -> unit

val record_outcome : t -> now:float -> ?bytes:int -> Tcp.Conn.outcome -> unit
(** [bytes] is the transfer's payload size, credited to
    {!bytes_completed} on completion (default 0, so callers that only
    track counts are unchanged). *)

val attempted : t -> int
val completed : t -> int
val aborted : t -> int

val fraction_completed : t -> float
(** [completed / attempted]; transfers still in flight at cutoff count as
    not completed.  1.0 when nothing was attempted (so idle cells plot as
    undamaged) — export paths that must distinguish "no attempts" from a
    perfect score use {!fraction_completed_opt}. *)

val fraction_completed_opt : t -> float option
(** [None] when nothing was attempted; JSON exports render it as [null]
    rather than a fabricated 1.0. *)

val avg_transfer_time : t -> float
(** Mean duration of completed transfers; [nan] if none completed. *)

val median_transfer_time : t -> float
(** Median duration of completed transfers (from the timeline's
    per-transfer points); [nan] if none completed. *)

val bytes_completed : t -> int
(** Payload bytes of completed transfers — per-sender goodput when the
    metrics object is per sender, as in [Experiment]. *)

val jain_index : float list -> float
(** Jain's fairness index [(Σx)² / (n·Σx²)] over per-sender shares: 1.0
    for equal shares (and for the empty or all-zero list), [1/n] when one
    sender takes everything.  Exports that must tell "no shares" from a
    fair split use {!jain_index_opt}. *)

val jain_index_opt : float list -> float option
(** [None] for the empty or all-zero list; JSON exports render it as
    [null] rather than a fabricated 1.0. *)

val transfer_times : t -> Stats.Summary.t

val timeline : t -> Stats.Timeseries.t
(** One point per completed transfer: (completion time, duration). *)

val merge_into : t -> t -> unit
(** [merge_into acc x] folds [x]'s counts and samples into [acc]
    (timeline points included). *)
