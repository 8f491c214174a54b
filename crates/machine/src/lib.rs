//! # pastix-machine
//!
//! The target-machine model that drives the static scheduler: the BLAS
//! time model (from `pastix-kernels`) plus the communication network model,
//! with automatic calibration and JSON persistence.
//!
//! *"We estimate the workload and message passing latency by using a BLAS
//! and communication network time model, which is automatically calibrated
//! on the target architecture"* (paper, §2). The default instance models
//! the paper's testbed: an IBM SP2 with 120 MHz Power2SC thin nodes
//! (480 MFlop/s peak) and its high-performance switch.

#![warn(missing_docs)]

use pastix_json::{obj, Json, JsonError};
use pastix_kernels::model::{BlasModel, KernelClass};
use std::io::{Read, Write};
use std::time::Instant;

/// Linear (alpha–beta) communication model: sending `bytes` costs
/// `latency + bytes / bandwidth` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Per-message startup latency in seconds.
    pub latency: f64,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl NetworkModel {
    /// Time to ship a message of `bytes` between two distinct processors.
    #[inline]
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }

    /// The IBM SP2 high-performance switch of the paper's experiments:
    /// ≈40 µs MPI latency, ≈35 MB/s sustained bandwidth (user-space MPI on
    /// the TB3 adapter era).
    pub fn sp2_switch() -> Self {
        Self {
            latency: 40e-6,
            bandwidth: 35e6,
        }
    }

    /// A loopback-style model for in-process experiments (threads passing
    /// buffers): sub-microsecond latency, memcpy-class bandwidth.
    pub fn in_process() -> Self {
        Self {
            latency: 0.5e-6,
            bandwidth: 4e9,
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        obj([
            ("latency", Json::Num(self.latency)),
            ("bandwidth", Json::Num(self.bandwidth)),
        ])
    }

    /// Parses the JSON form produced by [`NetworkModel::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            latency: v.field("latency")?.as_f64()?,
            bandwidth: v.field("bandwidth")?.as_f64()?,
        })
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::sp2_switch()
    }
}

/// The complete machine model used by the mapper/scheduler.
///
/// ```
/// use pastix_machine::MachineModel;
/// use pastix_kernels::model::KernelClass;
/// let m = MachineModel::sp2(16);
/// // Pricing a 64³ GEMM and a 32 KB transfer on the modeled SP2:
/// assert!(m.kernel_time(KernelClass::GemmNt, 64, 64, 64) > 0.0);
/// assert!(m.comm_time(0, 1, 64 * 64) > m.net.latency);
/// assert_eq!(m.comm_time(3, 3, 1000), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MachineModel {
    /// Number of processors of the target machine.
    pub n_procs: usize,
    /// Dense kernel time model.
    pub blas: BlasModel,
    /// Interconnect model.
    pub net: NetworkModel,
    /// Bytes per scalar shipped in messages (8 for `f64`, 16 for complex).
    pub bytes_per_scalar: usize,
    /// Processors per SMP node (1 = pure distributed memory, the paper's
    /// SP2). The paper's perspectives announce *"a modified version of our
    /// strategy to take into account architectures based on SMP nodes"*:
    /// with `procs_per_node > 1`, transfers between processors of the same
    /// node use [`MachineModel::intra_node`] instead of the switch, and the
    /// greedy scheduler automatically clusters communicating tasks on
    /// nodes because it sees the cheaper costs. JSON written before the
    /// SMP extension omits this field; loading defaults it to 1.
    pub procs_per_node: usize,
    /// Intra-node (shared-memory) transfer model, used when
    /// `procs_per_node > 1` (defaulted on load of pre-SMP JSON).
    pub intra_node: NetworkModel,
}

impl MachineModel {
    /// A `p`-node model of the paper's IBM SP2.
    pub fn sp2(n_procs: usize) -> Self {
        Self {
            n_procs,
            blas: BlasModel::power2sc(),
            net: NetworkModel::sp2_switch(),
            bytes_per_scalar: 8,
            procs_per_node: 1,
            intra_node: NetworkModel::in_process(),
        }
    }

    /// An SMP-cluster variant of the SP2 model: `n_procs` processors packed
    /// `procs_per_node` to a shared-memory node (the architecture the
    /// paper's conclusion announces as future work).
    pub fn sp2_smp(n_procs: usize, procs_per_node: usize) -> Self {
        Self {
            procs_per_node: procs_per_node.max(1),
            ..Self::sp2(n_procs)
        }
    }

    /// SMP node of a processor under this model.
    #[inline]
    pub fn node_of(&self, proc: usize) -> usize {
        proc / self.procs_per_node.max(1)
    }

    /// Predicted time of a kernel instance (delegates to the BLAS model).
    #[inline]
    pub fn kernel_time(&self, class: KernelClass, m: usize, n: usize, k: usize) -> f64 {
        self.blas.cost(class, m, n, k)
    }

    /// Predicted time to move `n_scalars` matrix entries between two
    /// distinct processors: zero within a processor, the intra-node model
    /// within an SMP node, the switch otherwise.
    #[inline]
    pub fn comm_time(&self, from: usize, to: usize, n_scalars: usize) -> f64 {
        if from == to {
            0.0
        } else if self.procs_per_node > 1 && self.node_of(from) == self.node_of(to) {
            self.intra_node.transfer_time(n_scalars * self.bytes_per_scalar)
        } else {
            self.net.transfer_time(n_scalars * self.bytes_per_scalar)
        }
    }

    /// JSON form.
    pub fn to_json(&self) -> Json {
        obj([
            ("n_procs", Json::Num(self.n_procs as f64)),
            ("blas", self.blas.to_json()),
            ("net", self.net.to_json()),
            ("bytes_per_scalar", Json::Num(self.bytes_per_scalar as f64)),
            ("procs_per_node", Json::Num(self.procs_per_node as f64)),
            ("intra_node", self.intra_node.to_json()),
        ])
    }

    /// Parses the JSON form produced by [`MachineModel::to_json`]. The
    /// SMP fields (`procs_per_node`, `intra_node`) are optional so models
    /// serialized before the SMP extension still load; fields this model no
    /// longer has (`task_calibration`) are ignored.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            n_procs: v.field("n_procs")?.as_usize()?,
            blas: BlasModel::from_json(v.field("blas")?)?,
            net: NetworkModel::from_json(v.field("net")?)?,
            bytes_per_scalar: v.field("bytes_per_scalar")?.as_usize()?,
            procs_per_node: match v.get("procs_per_node") {
                Some(f) => f.as_usize()?,
                None => 1,
            },
            intra_node: match v.get("intra_node") {
                Some(f) => NetworkModel::from_json(f)?,
                None => NetworkModel::in_process(),
            },
        })
    }

    /// Serializes to pretty JSON.
    pub fn save<W: Write>(&self, mut w: W) -> Result<(), std::io::Error> {
        w.write_all(self.to_json().pretty().as_bytes())
    }

    /// Deserializes from JSON.
    pub fn load<R: Read>(mut r: R) -> Result<Self, std::io::Error> {
        let mut text = String::new();
        r.read_to_string(&mut text)?;
        let v = Json::parse(&text).map_err(std::io::Error::other)?;
        Self::from_json(&v).map_err(std::io::Error::other)
    }
}

impl Default for MachineModel {
    fn default() -> Self {
        Self::sp2(16)
    }
}

/// Measures an in-process "network": the cost of handing a buffer between
/// threads through a channel, fitted to the alpha–beta form from two
/// message sizes.
pub fn measure_in_process_network() -> NetworkModel {
    let time_send = |bytes: usize, reps: usize| -> f64 {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<u8>>(1);
        let handle = std::thread::spawn(move || {
            let mut sink = 0u8;
            while let Ok(v) = rx.recv() {
                sink ^= v.first().copied().unwrap_or(0);
            }
            sink
        });
        let payload = vec![1u8; bytes];
        let t0 = Instant::now();
        for _ in 0..reps {
            tx.send(payload.clone()).unwrap();
        }
        drop(tx);
        let _ = handle.join();
        t0.elapsed().as_secs_f64() / reps as f64
    };
    let small = 256usize;
    let big = 1 << 20;
    let t_small = time_send(small, 200);
    let t_big = time_send(big, 30);
    let bw = (big - small) as f64 / (t_big - t_small).max(1e-12);
    let lat = (t_small - small as f64 / bw).max(1e-9);
    NetworkModel {
        latency: lat,
        bandwidth: bw.max(1e6),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastix_kernels::model::BlasModel;

    #[test]
    fn transfer_time_monotone() {
        let n = NetworkModel::sp2_switch();
        assert!(n.transfer_time(1000) < n.transfer_time(100_000));
        assert!(n.transfer_time(0) == n.latency);
    }

    #[test]
    fn intra_processor_comm_is_free() {
        let m = MachineModel::sp2(4);
        assert_eq!(m.comm_time(2, 2, 1000), 0.0);
        assert!(m.comm_time(1, 2, 1000) > 0.0);
    }

    #[test]
    fn smp_nodes_make_local_comm_cheap() {
        let m = MachineModel::sp2_smp(8, 4);
        assert_eq!(m.node_of(3), 0);
        assert_eq!(m.node_of(4), 1);
        let intra = m.comm_time(0, 3, 4096);
        let inter = m.comm_time(0, 4, 4096);
        assert!(intra < inter / 10.0, "intra {intra} vs inter {inter}");
        // Pure distributed-memory model unaffected.
        let flat = MachineModel::sp2(8);
        assert_eq!(flat.comm_time(0, 3, 4096), flat.comm_time(0, 4, 4096));
    }

    #[test]
    fn sp2_absolute_scale_sanity() {
        // Shipping a 64x64 block (32 KB) over the SP2 switch: latency 40 µs
        // + ~0.94 ms — of the same order as computing on it, which is what
        // makes the scheduling problem interesting.
        let m = MachineModel::sp2(16);
        let t = m.comm_time(0, 1, 64 * 64);
        assert!(t > 5e-4 && t < 5e-3, "t = {t}");
    }

    #[test]
    fn json_roundtrip() {
        let m = MachineModel::sp2(32);
        let mut buf = Vec::new();
        m.save(&mut buf).unwrap();
        let m2 = MachineModel::load(&buf[..]).unwrap();
        // JSON float printing can lose an ULP; compare predictions.
        assert_eq!(m.n_procs, m2.n_procs);
        assert_eq!(m.bytes_per_scalar, m2.bytes_per_scalar);
        for (m_, n_, k_) in [(8, 8, 8), (64, 64, 64), (300, 50, 64)] {
            for c in [KernelClass::GemmNt, KernelClass::TrsmPanel, KernelClass::FactorLdlt] {
                let a = m.kernel_time(c, m_, n_, k_);
                let b = m2.kernel_time(c, m_, n_, k_);
                assert!((a - b).abs() <= 1e-12 * a.abs().max(1e-15));
            }
        }
        assert!((m.net.latency - m2.net.latency).abs() < 1e-12);
    }

    #[test]
    fn kernel_time_delegation() {
        let m = MachineModel::sp2(1);
        assert!(m.kernel_time(KernelClass::GemmNt, 64, 64, 64) > 0.0);
    }

    #[test]
    fn json_without_smp_fields_loads_with_defaults() {
        // A model serialized before the SMP extension (no procs_per_node /
        // intra_node) must still load — from_json defaults fill the gap —
        // and so must one carrying the retired per-task-kind calibration.
        let legacy = r#"{
            "n_procs": 4,
            "blas": BLAS,
            "net": {"latency": 4e-5, "bandwidth": 3.5e7},
            "bytes_per_scalar": 8,
            "task_calibration": [1e9, 1e9, 1e9, 1e9]
        }"#;
        let blas = BlasModel::power2sc().to_json().compact();
        let json = legacy.replace("BLAS", &blas);
        let m = MachineModel::from_json(&pastix_json::Json::parse(&json).unwrap()).unwrap();
        assert_eq!(m.procs_per_node, 1);
        assert_eq!(m.comm_time(0, 1, 100), m.net.transfer_time(800));
    }

    #[test]
    fn node_of_handles_degenerate_node_size() {
        let mut m = MachineModel::sp2(4);
        m.procs_per_node = 0; // defensive: treated as 1
        assert_eq!(m.node_of(3), 3);
    }

    #[test]
    fn in_process_measurement_produces_sane_numbers() {
        let n = measure_in_process_network();
        assert!(n.latency > 0.0 && n.latency < 1e-2, "latency {}", n.latency);
        assert!(n.bandwidth > 1e6, "bandwidth {}", n.bandwidth);
    }
}
