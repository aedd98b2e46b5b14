(** Markdown documents whose tables are rendered from committed artifacts.

    A generated block opens with [<!-- docs SOURCE [METRIC ...] -->] and
    closes with [<!-- /docs -->]; SOURCE is a path relative to the
    document.  Its table comes from SOURCE, read as it is committed:
    - a [.json] e2e report gives the [layers] value of each METRIC, one row
      per metric and one column per workload, whole numbers for the [ns]
      and [count] units and one decimal for [words];
    - a [.md] file gives its first table;
    - any other file is a [Stats.Table] text, its rows as they are.

    Nothing is re-run, and every line outside the blocks is copied, so a
    rendered document renders to itself. *)

val render : string -> (string, string) result
(** [render file] is FILE's text with every generated block re-rendered,
    or ["FILE:LINE: what is wrong"] naming the document's begin line or the
    source's line at fault. *)
