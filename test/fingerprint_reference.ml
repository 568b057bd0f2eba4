(* [Config.fingerprint] as it stood before [Config.make] rendered it once
   and stored it, kept verbatim as the test oracle: the stored field must
   equal this rendering of the record's fields, so cache keys and store
   entries keep their historical text. *)

open Ncdrf_machine
open Config

let fingerprint t =
  let buf = Buffer.create 64 in
  Buffer.add_string buf t.name;
  Buffer.add_char buf '\x00';
  let port = function None -> "-" | Some n -> string_of_int n in
  Array.iter
    (fun c ->
      Buffer.add_string buf (Printf.sprintf "%d,%d,%d" c.adders c.multipliers c.ls_units);
      if c.read_ports <> None || c.write_ports <> None then
        Buffer.add_string buf
          (Printf.sprintf ",r%s,w%s" (port c.read_ports) (port c.write_ports));
      Buffer.add_char buf '|')
    t.clusters;
  Buffer.add_string buf
    (Printf.sprintf "lat=%d,%d,%d;ports=%s,%s" t.add_latency t.mul_latency t.mem_latency
       (port t.load_ports) (port t.store_ports));
  Buffer.contents buf
