(** VLIW machine configurations.

    A configuration is a set of {e clusters}, each holding a number of
    adders, multipliers and load/store units, plus optional machine-wide
    load/store port caps (used by the PxLy configurations of the paper's
    Table 1, which constrain loads to 2 per cycle and stores to 1 per
    cycle irrespective of unit counts).

    Each cluster may additionally carry optional {e register-file} port
    budgets ([read_ports]/[write_ports]): per-cycle caps on how many
    operands its subfile can deliver and how many results it can accept.
    [None] (the default) means unconstrained, which reproduces the
    original machine model exactly.

    All functional units are fully pipelined: a unit accepts a new
    operation every cycle; latency only delays the result. *)

open Ncdrf_ir

type cluster = {
  adders : int;
  multipliers : int;
  ls_units : int;  (** load/store units private to the cluster *)
  read_ports : int option;
      (** per-cycle cap on register-file reads from this cluster's
          subfile; [None] = unconstrained *)
  write_ports : int option;
      (** per-cycle cap on register-file writes into this cluster's
          subfile; [None] = unconstrained *)
}

type t = private {
  name : string;
  clusters : cluster array;  (** length [k >= 1]: 1 = unified, 2 = dual, ... *)
  add_latency : int;  (** adds, subtracts, conversions *)
  mul_latency : int;  (** multiplies and divides *)
  mem_latency : int;  (** loads and stores, 1 in the paper *)
  load_ports : int option;  (** machine-wide cap on loads per cycle *)
  store_ports : int option;  (** machine-wide cap on stores per cycle *)
  fingerprint : string;  (** rendered once by {!make}; see {!val-fingerprint} *)
}

(** Largest cluster count a configuration may have (62): the swap pass
    keeps a value's cluster set as the bits of one [int]. *)
val max_clusters : int

(** Validate and build a configuration.  [clusters] is copied, so
    mutating the caller's array afterwards changes neither the
    configuration nor its fingerprint.
    @raise Invalid_argument on no clusters or more than
    {!max_clusters}, a latency [< 1], a negative unit count or a
    register-file port cap [< 1]. *)
val make :
  name:string ->
  clusters:cluster array ->
  add_latency:int ->
  mul_latency:int ->
  ?mem_latency:int ->
  ?load_ports:int ->
  ?store_ports:int ->
  unit ->
  t

(** A cluster with symmetric unit counts; register-file port caps
    default to unconstrained. *)
val symmetric_cluster :
  ?read_ports:int ->
  ?write_ports:int ->
  adders:int ->
  multipliers:int ->
  ls_units:int ->
  unit ->
  cluster

(** Table 1 configuration PxLy: [x] adders and [x] multipliers of latency
    [y], one store port and two load ports, single cluster. *)
val pxly : parallelism:int -> latency:int -> t

(** [k] clusters of {1 adder, 1 multiplier, 1 load/store unit} at FP
    latency [latency], each optionally capped at [read_ports] reads and
    [write_ports] writes per cycle on its subfile.  With [k = 2] and no
    port caps this is exactly {!dual} (same name, same fingerprint).

    @raise Invalid_argument if [k < 1] or, from {!make}, if
    [k > max_clusters]. *)
val k_cluster :
  ?read_ports:int -> ?write_ports:int -> k:int -> latency:int -> unit -> t

(** The evaluation configuration of Section 5.2: two clusters of {1
    adder, 1 multiplier, 1 load/store unit}, FP latency
    [latency] (3 or 6), memory latency 1. *)
val dual : latency:int -> t

(** The machine of the worked example (Section 4.1): two clusters of {1
    adder, 1 multiplier, 2 load/store units}, FP latency 3, memory
    latency 1. *)
val example : unit -> t

val num_clusters : t -> int
val latency : t -> Opcode.t -> int

(** Per-class unit totals over the whole machine. *)
val total_adders : t -> int

val total_multipliers : t -> int
val total_ls_units : t -> int

(** True when any cluster carries a register-file read or write port
    cap. *)
val has_port_caps : t -> bool

(** Number of memory ports used in the density-of-traffic denominator:
    the effective per-cycle memory issue bandwidth. *)
val memory_bandwidth : t -> int

(** Stable serialization of every field (name, clusters incl. any
    register-file port caps, latencies, machine-wide port caps), usable
    as the machine half of a compile-cache key: two configurations
    fingerprint equally iff they are equal.  Configurations without
    register-file port caps keep the historical rendering, so existing
    cache keys and ledger digests are unchanged.  Rendered once by
    {!make}; this is a field read. *)
val fingerprint : t -> string

val pp : Format.formatter -> t -> unit

(** A machine described by the driver flags ([--latency], [--clusters],
    [--read-ports], [--write-ports]) — the shape both the CLI and the
    serving protocol carry.  Field names are prefixed to keep the
    record distinct from {!cluster}'s unprefixed ports. *)
type spec = {
  spec_latency : int;
  spec_clusters : int;
  spec_read_ports : int option;
  spec_write_ports : int option;
}

(** Latency 3, two clusters, unconstrained ports — the paper's dual
    machine. *)
val default_spec : spec

(** Build the machine a spec describes: 1 cluster is the unified
    machine ({!dual}'s resources in a single cluster, the unified
    register-file machine the paper compares against, optionally
    port-capped), 2 uncapped
    clusters is {!dual}, anything else {!k_cluster}.  [Error], naming
    the flag, on a cluster count outside [[1, max_clusters]], a latency
    [< 1] or a port cap [< 1] — the CLI and the wire protocol must
    reject bad specs as usage or typed errors, never exceptions. *)
val of_spec : spec -> (t, string) result
