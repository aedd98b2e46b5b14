type cap = { ts : int; hash : int64 }

let pp_cap fmt c = Format.fprintf fmt "cap(ts=%d,h=%014Lx)" c.ts c.hash
let cap_equal a b = a.ts = b.ts && Int64.equal a.hash b.hash

type return_info =
  | Demotion_notice
  | Grant of { n_kb : int; t_sec : int; caps : cap list }

(* Hop-by-hop fields are reverse-accumulated: routers cons onto the [rev_*]
   lists in O(1) and readers get path order back via the accessors below.
   The old representation appended with [l @ [x]], which copied the whole
   list at every hop — quadratic over a path.  The regular-packet
   capability list is an array so the router's "capability ptr" indexes it
   in O(1) rather than [List.nth]. *)

type request = { mutable rev_path_ids : int list; mutable rev_precaps : cap list }

type regular = {
  nonce : int64;
  caps : cap array;
  n_kb : int;
  t_sec : int;
  renewal : bool;
  mutable rev_fresh_precaps : cap list;
}

type kind = Request of request | Regular of regular

let path_ids req = List.rev req.rev_path_ids
let precaps req = List.rev req.rev_precaps
let precap_count req = List.length req.rev_precaps
let push_path_id req pid = req.rev_path_ids <- pid :: req.rev_path_ids
let push_precap req c = req.rev_precaps <- c :: req.rev_precaps
let fresh_precaps r = List.rev r.rev_fresh_precaps
let push_fresh_precap r c = r.rev_fresh_precaps <- c :: r.rev_fresh_precaps

type t = {
  mutable kind : kind;
  mutable demoted : bool;
  mutable return_info : return_info option;
  mutable ptr : int;
}

let request () =
  {
    kind = Request { rev_path_ids = []; rev_precaps = [] };
    demoted = false;
    return_info = None;
    ptr = 0;
  }

let regular ?(fresh_precaps = []) ~nonce ~caps ~n_kb ~t_sec ~renewal () =
  let caps = match caps with [] -> [||] | caps -> Array.of_list caps in
  {
    kind =
      Regular { nonce; caps; n_kb; t_sec; renewal; rev_fresh_precaps = List.rev fresh_precaps };
    demoted = false;
    return_info = None;
    ptr = 0;
  }

let fresh_precap = { ts = 0; hash = 0L }

let copy t =
  let kind =
    match t.kind with
    | Request r -> Request { rev_path_ids = r.rev_path_ids; rev_precaps = r.rev_precaps }
    | Regular r -> Regular { r with caps = Array.copy r.caps }
  in
  { kind; demoted = t.demoted; return_info = t.return_info; ptr = t.ptr }

let upper_protocol = 6

(* Sizes in bits, per Fig. 5. *)
let common_bits = 16
let count_bits = 8 (* capability num / capability ptr *)
let path_id_bits = 16
let cap_bits = 64
let nonce_bits = 48
let n_bits = 10
let t_bits = 6
let return_type_bits = 8

let[@inline] return_info_bits = function
  | None -> 0
  | Some Demotion_notice -> return_type_bits
  | Some (Grant { caps; _ }) ->
      return_type_bits + count_bits + n_bits + t_bits + (cap_bits * List.length caps)

let[@inline] kind_bits = function
  | Request req ->
      (2 * count_bits)
      + (path_id_bits * List.length req.rev_path_ids)
      + (cap_bits * List.length req.rev_precaps)
  | Regular r ->
      nonce_bits + (2 * count_bits) + n_bits + t_bits
      + (cap_bits * Array.length r.caps)
      + (if r.renewal then count_bits + (cap_bits * List.length r.rev_fresh_precaps) else 0)

let[@inline] wire_size t = (common_bits + kind_bits t.kind + return_info_bits t.return_info + 7) / 8

(* Type nibble per Fig. 5: bit3 = demoted, bit2 = return info present,
   bits 1..0 = 00 request / 01 regular w/ capabilities / 10 regular w/
   nonce only / 11 renewal. *)
let type_nibble t =
  let low =
    match t.kind with
    | Request _ -> 0b00
    | Regular { renewal = true; _ } -> 0b11
    | Regular { caps = [||]; _ } -> 0b10
    | Regular _ -> 0b01
  in
  (if t.demoted then 0b1000 else 0)
  lor (if t.return_info <> None then 0b0100 else 0)
  lor low

let version = 1

let check_range name v limit = if v < 0 || v >= limit then invalid_arg ("Cap_shim.encode: " ^ name ^ " out of range")

let put_cap w c =
  check_range "cap timestamp" c.ts 256;
  if Int64.shift_right_logical c.hash 56 <> 0L then invalid_arg "Cap_shim.encode: cap hash wider than 56 bits";
  Bitbuf.Writer.put w ~bits:8 c.ts;
  Bitbuf.Writer.put64 w ~bits:56 c.hash

let encode t =
  let w = Bitbuf.Writer.create () in
  Bitbuf.Writer.put w ~bits:4 version;
  Bitbuf.Writer.put w ~bits:4 (type_nibble t);
  Bitbuf.Writer.put w ~bits:8 upper_protocol;
  (match t.kind with
  | Request req ->
      (* Fig. 5 shows a single n for path-ids and blank capabilities; in the
         protocol only trust-boundary routers tag, so the two lists can have
         different lengths and we carry both counts. *)
      let path_ids = path_ids req and precaps = precaps req in
      check_range "path-id count" (List.length path_ids) 256;
      check_range "pre-capability count" (List.length precaps) 256;
      Bitbuf.Writer.put w ~bits:count_bits (List.length path_ids);
      Bitbuf.Writer.put w ~bits:count_bits (List.length precaps);
      List.iter
        (fun pid ->
          check_range "path id" pid 65536;
          Bitbuf.Writer.put w ~bits:path_id_bits pid)
        path_ids;
      List.iter (put_cap w) precaps
  | Regular r ->
      if Int64.shift_right_logical r.nonce 48 <> 0L then invalid_arg "Cap_shim.encode: nonce wider than 48 bits";
      check_range "capability count" (Array.length r.caps) 256;
      check_range "N" r.n_kb 1024;
      check_range "T" r.t_sec 64;
      Bitbuf.Writer.put64 w ~bits:nonce_bits r.nonce;
      Bitbuf.Writer.put w ~bits:count_bits (Array.length r.caps);
      check_range "capability ptr" t.ptr 256;
      Bitbuf.Writer.put w ~bits:count_bits t.ptr;
      Bitbuf.Writer.put w ~bits:n_bits r.n_kb;
      Bitbuf.Writer.put w ~bits:t_bits r.t_sec;
      Array.iter (put_cap w) r.caps;
      if r.renewal then begin
        let fresh = fresh_precaps r in
        check_range "fresh pre-capability count" (List.length fresh) 256;
        Bitbuf.Writer.put w ~bits:count_bits (List.length fresh);
        List.iter (put_cap w) fresh
      end
      else if r.rev_fresh_precaps <> [] then
        invalid_arg "Cap_shim.encode: fresh pre-capabilities on a non-renewal packet");
  (match t.return_info with
  | None -> ()
  | Some Demotion_notice -> Bitbuf.Writer.put w ~bits:return_type_bits 0x01
  | Some (Grant { n_kb; t_sec; caps }) ->
      check_range "return capability count" (List.length caps) 256;
      check_range "return N" n_kb 1024;
      check_range "return T" t_sec 64;
      Bitbuf.Writer.put w ~bits:return_type_bits 0x02;
      Bitbuf.Writer.put w ~bits:count_bits (List.length caps);
      Bitbuf.Writer.put w ~bits:n_bits n_kb;
      Bitbuf.Writer.put w ~bits:t_bits t_sec;
      List.iter (put_cap w) caps);
  Bitbuf.Writer.contents w

let get_cap r =
  let ts = Bitbuf.Reader.get r ~bits:8 in
  let hash = Bitbuf.Reader.get64 r ~bits:56 in
  { ts; hash }

let get_list r n f = List.init n (fun _ -> f r)

let decode s =
  let r = Bitbuf.Reader.create s in
  match
    let v = Bitbuf.Reader.get r ~bits:4 in
    if v <> version then Error (Printf.sprintf "bad version %d" v)
    else begin
      let ty = Bitbuf.Reader.get r ~bits:4 in
      let proto = Bitbuf.Reader.get r ~bits:8 in
      if proto <> upper_protocol then Error (Printf.sprintf "bad upper protocol %d" proto)
      else begin
        let demoted = ty land 0b1000 <> 0 in
        let has_return = ty land 0b0100 <> 0 in
        let ptr = ref 0 in
        let kind =
          match ty land 0b11 with
          | 0b00 ->
              let n_path = Bitbuf.Reader.get r ~bits:count_bits in
              let n_caps = Bitbuf.Reader.get r ~bits:count_bits in
              let path_ids = get_list r n_path (fun r -> Bitbuf.Reader.get r ~bits:path_id_bits) in
              let precaps = get_list r n_caps get_cap in
              (* Wire order is path order, so store it reversed. *)
              Request { rev_path_ids = List.rev path_ids; rev_precaps = List.rev precaps }
          | low ->
              let renewal = low = 0b11 in
              let nonce = Bitbuf.Reader.get64 r ~bits:nonce_bits in
              let n_caps = Bitbuf.Reader.get r ~bits:count_bits in
              ptr := Bitbuf.Reader.get r ~bits:count_bits;
              let n_kb = Bitbuf.Reader.get r ~bits:n_bits in
              let t_sec = Bitbuf.Reader.get r ~bits:t_bits in
              let caps = Array.init n_caps (fun _ -> get_cap r) in
              let fresh_precaps =
                if renewal then begin
                  let n_fresh = Bitbuf.Reader.get r ~bits:count_bits in
                  get_list r n_fresh get_cap
                end
                else []
              in
              Regular
                { nonce; caps; n_kb; t_sec; renewal; rev_fresh_precaps = List.rev fresh_precaps }
        in
        let return_info =
          if not has_return then None
          else
            match Bitbuf.Reader.get r ~bits:return_type_bits with
            | 0x01 -> Some Demotion_notice
            | 0x02 ->
                let n_caps = Bitbuf.Reader.get r ~bits:count_bits in
                let n_kb = Bitbuf.Reader.get r ~bits:n_bits in
                let t_sec = Bitbuf.Reader.get r ~bits:t_bits in
                let caps = get_list r n_caps get_cap in
                Some (Grant { n_kb; t_sec; caps })
            | ty -> invalid_arg (Printf.sprintf "bad return type %#x" ty)
        in
        Ok { kind; demoted; return_info; ptr = !ptr }
      end
    end
  with
  | result -> result
  | exception Bitbuf.Reader.Truncated -> Error "truncated header"
  | exception Invalid_argument msg -> Error msg

let pp fmt t =
  let pp_kind fmt = function
    | Request req ->
        Format.fprintf fmt "request paths=[%s] precaps=%d"
          (String.concat ";" (List.map string_of_int (path_ids req)))
          (precap_count req)
    | Regular r ->
        Format.fprintf fmt "%s nonce=%012Lx caps=%d N=%dKB T=%ds fresh=%d"
          (if r.renewal then "renewal" else if r.caps = [||] then "regular/nonce" else "regular/caps")
          r.nonce (Array.length r.caps) r.n_kb r.t_sec
          (List.length r.rev_fresh_precaps)
  in
  Format.fprintf fmt "@[<h>%a%s%s@]" pp_kind t.kind
    (if t.demoted then " DEMOTED" else "")
    (match t.return_info with
    | None -> ""
    | Some Demotion_notice -> " +demotion-notice"
    | Some (Grant { caps; _ }) -> Printf.sprintf " +grant(%d caps)" (List.length caps))
