//! Model-based property tests for the CLOCK evictor.

use ampom_mem::eviction::ClockEvictor;
use ampom_mem::page::PageId;
use ampom_sim::propcheck::forall;
use std::collections::HashSet;

#[test]
fn evictor_never_exceeds_its_limit() {
    forall("evictor-limit", 128, |g| {
        let limit = g.u64(1..16);
        // Random evictor workload: a sequence of installs/touches with
        // forced evictions whenever capacity is hit.
        let script = g.vec(1..400, |g| (g.u64(0..3), g.u64(0..64)));
        let mut ev = ClockEvictor::new(64, limit);
        let mut resident: HashSet<u64> = HashSet::new();
        for (op, page) in script {
            match op {
                0 => {
                    // Install (evicting first if needed), unless present.
                    if !ev.contains(PageId(page)) {
                        while ev.at_capacity() {
                            let v = ev.evict(PageId(page));
                            assert!(resident.remove(&v.index()));
                        }
                        ev.on_install(PageId(page));
                        resident.insert(page);
                    }
                }
                1 => ev.on_touch(PageId(page)),
                _ => {
                    ev.remove(PageId(page));
                    resident.remove(&page);
                }
            }
            assert!(ev.resident() <= limit);
            assert_eq!(ev.resident(), resident.len() as u64);
            // Membership agrees with the model.
            for p in 0..64u64 {
                assert_eq!(ev.contains(PageId(p)), resident.contains(&p));
            }
        }
    });
}

#[test]
fn evictor_victims_are_always_resident() {
    forall("evictor-victims", 128, |g| {
        let limit = g.u64(2..8);
        let pages = g.vec_u64(2..100, 0..32);
        let mut ev = ClockEvictor::new(32, limit);
        let mut resident: HashSet<u64> = HashSet::new();
        for page in pages {
            if resident.contains(&page) {
                ev.on_touch(PageId(page));
                continue;
            }
            while ev.at_capacity() {
                let v = ev.evict(PageId(page));
                assert!(resident.remove(&v.index()), "victim {v} was not resident");
                assert_ne!(v, PageId(page));
            }
            ev.on_install(PageId(page));
            resident.insert(page);
        }
    });
}
