//! Property tests for the calibration: perturbation stays within its
//! amplitude and never changes which hardware bound is the write/read
//! limiter.

use cluster::Calibration;
use proptest::prelude::*;
use simkit::SplitMix64;

proptest! {
    #[test]
    fn perturbation_bounded(seed in any::<u64>()) {
        let base = Calibration::default();
        let mut rng = SplitMix64::new(seed);
        let p = base.perturb(&mut rng);
        let amp = base.jitter_amp;
        prop_assert!((p.server_nvme_write_bw.get() / base.server_nvme_write_bw.get() - 1.0).abs() <= amp);
        prop_assert!((p.server_nvme_read_bw.get() / base.server_nvme_read_bw.get() - 1.0).abs() <= amp);
        prop_assert!((p.engine_xfer_bw.get() / base.engine_xfer_bw.get() - 1.0).abs() <= amp);
        prop_assert!((p.mds_iops / base.mds_iops - 1.0).abs() <= amp + 1e-9);
        // the structural orderings the model depends on survive
        prop_assert!(p.engine_xfer_bw > p.server_nvme_write_bw, "write stays SSD-bound");
        prop_assert!(p.engine_xfer_bw < p.nic_bw, "read stays engine-bound");
    }

    #[test]
    fn perturbations_differ_across_seeds(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let base = Calibration::default();
        let pa = base.perturb(&mut SplitMix64::new(a));
        let pb = base.perturb(&mut SplitMix64::new(b));
        prop_assert!(pa.server_nvme_write_bw != pb.server_nvme_write_bw);
    }
}
