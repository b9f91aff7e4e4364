//! The elastic-pool scheduler: how a shared pool of vCores is split across
//! tenants (CDB2's deployment model — tenants share vCores and the log
//! service, so an idle tenant's capacity flows to a busy one). Which profile
//! deploys which tenancy model is `cloudybench::tenancy`'s business; it
//! derives that from each profile's `ScalingKind`.

/// Water-filling allocation of `total` vCores across tenants with the given
/// `demands` (vCores each tenant could productively use) and a `min_share`
/// guarantee for any tenant with non-zero demand.
///
/// Idle tenants (demand 0) receive nothing; their capacity flows to busy
/// tenants — the mechanism behind CDB2's strong staggered-pattern numbers.
pub fn elastic_pool_allocate(demands: &[f64], total: f64, min_share: f64) -> Vec<f64> {
    assert!(total >= 0.0 && min_share >= 0.0);
    let n = demands.len();
    let mut alloc = vec![0.0f64; n];
    if n == 0 || total <= 0.0 {
        return alloc;
    }
    // Pass 1: guarantee the minimum to every active tenant (scaled down if
    // the guarantees alone exceed the pool).
    let active: Vec<usize> = (0..n).filter(|i| demands[*i] > 0.0).collect();
    if active.is_empty() {
        return alloc;
    }
    let mut remaining = total;
    let guarantee = min_share.min(total / active.len() as f64);
    for &i in &active {
        let g = guarantee.min(demands[i]);
        alloc[i] = g;
        remaining -= g;
    }
    // Pass 2: water-fill the rest toward each tenant's demand.
    let mut unmet: Vec<usize> = active
        .iter()
        .copied()
        .filter(|&i| alloc[i] < demands[i])
        .collect();
    while remaining > 1e-9 && !unmet.is_empty() {
        let share = remaining / unmet.len() as f64;
        let mut next_unmet = Vec::new();
        for &i in &unmet {
            let want = demands[i] - alloc[i];
            let give = want.min(share);
            alloc[i] += give;
            remaining -= give;
            if alloc[i] + 1e-12 < demands[i] {
                next_unmet.push(i);
            }
        }
        if next_unmet.len() == unmet.len() {
            // Everyone took a full share; distribute once more next loop.
            // (Loop terminates because remaining strictly decreases.)
        }
        unmet = next_unmet;
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-6, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn under_subscribed_pool_meets_all_demands() {
        let alloc = elastic_pool_allocate(&[2.0, 1.0, 0.5], 12.0, 0.5);
        assert_close(&alloc, &[2.0, 1.0, 0.5]);
    }

    #[test]
    fn over_subscribed_pool_splits_fairly() {
        let alloc = elastic_pool_allocate(&[8.0, 8.0, 8.0], 12.0, 0.5);
        assert_close(&alloc, &[4.0, 4.0, 4.0]);
        let total: f64 = alloc.iter().sum();
        assert!((total - 12.0).abs() < 1e-6);
    }

    #[test]
    fn idle_tenants_release_capacity() {
        // The staggered pattern: only tenant 2 is active and gets the pool.
        let alloc = elastic_pool_allocate(&[0.0, 20.0, 0.0], 12.0, 0.5);
        assert_close(&alloc, &[0.0, 12.0, 0.0]);
    }

    #[test]
    fn uneven_demands_water_fill() {
        // Demands 1, 5, 10 over a 12-core pool: tenant 0 fully served,
        // remainder split between 1 and 2 up to their demands.
        let alloc = elastic_pool_allocate(&[1.0, 5.0, 10.0], 12.0, 0.5);
        assert!((alloc[0] - 1.0).abs() < 1e-6);
        assert!((alloc.iter().sum::<f64>() - 12.0).abs() < 1e-6);
        assert!(alloc[1] <= 5.0 + 1e-9);
        assert!(alloc[2] > alloc[1]);
    }

    #[test]
    fn min_share_guarantee_holds_under_contention() {
        let alloc = elastic_pool_allocate(&[100.0, 0.1, 100.0], 12.0, 1.0);
        assert!(alloc[1] >= 0.1 - 1e-9, "small demand fully served");
        assert!(alloc[0] >= 1.0 && alloc[2] >= 1.0);
    }

    #[test]
    fn empty_and_zero_cases() {
        assert!(elastic_pool_allocate(&[], 12.0, 0.5).is_empty());
        assert_close(&elastic_pool_allocate(&[0.0, 0.0], 12.0, 0.5), &[0.0, 0.0]);
        assert_close(&elastic_pool_allocate(&[1.0], 0.0, 0.5), &[0.0]);
    }
}
