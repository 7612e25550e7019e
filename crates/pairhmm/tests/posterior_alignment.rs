//! The forward–backward marginals recover a planted alignment: on cleanly
//! alignable pairs every read base sits on the diagonal, and through a
//! planted indel the skipped genome column carries the deletion mass.

use genome::alphabet::Base;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use pairhmm::emission::EmissionTable;
use pairhmm::marginal::PosteriorAlignment;
use pairhmm::params::PhmmParams;
use pairhmm::pwm::Pwm;

fn emit_for(read_s: &str, genome_s: &str, q: u8, params: &PhmmParams) -> EmissionTable {
    let read = SequencedRead::with_uniform_quality("r", read_s.parse().unwrap(), q);
    let window: Vec<Option<Base>> = genome_s.parse::<DnaSeq>().unwrap().iter().collect();
    Pwm::from_read(&read).emission_table(&window, params)
}

#[test]
fn posterior_argmax_is_the_diagonal_on_clean_pairs() {
    let params = PhmmParams::default();
    for (r, g) in [
        ("ACGTACGTACGT", "ACGTACGTACGT"),
        ("ACGTACGTACGT", "ACGTACGGACGT"), // one mismatch
        ("TTGACCAGTTCAGG", "TTGACCAGTTCAGG"),
    ] {
        let emit = emit_for(r, g, 35, &params);
        let post = PosteriorAlignment::from_emissions(emit.view(), &params, None);
        for i in 1..=r.len() {
            let best_j = (1..=g.len())
                .max_by(|&a, &b| {
                    post.match_posterior(i, a)
                        .total_cmp(&post.match_posterior(i, b))
                })
                .unwrap();
            assert_eq!(best_j, i, "read base {i} should sit on the diagonal");
            assert!(post.match_posterior(i, i) > 0.9);
        }
    }
}

#[test]
fn planted_deletion_carries_the_gap_mass() {
    let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.02);
    // The genome has one extra base, the G at column 7 (1-based): the read
    // skips it.
    let genome = "TTGACCGAGTTCAGG";
    let emit = emit_for("TTGACCAGTTCAGG", genome, 35, &params);
    let post = PosteriorAlignment::from_emissions(emit.view(), &params, None);
    let del_mass: f64 = (1..=14).map(|i| post.deletion_posterior(i, 7)).sum();
    assert!(
        del_mass > 0.5,
        "deletion mass at column 7 should dominate: {del_mass}"
    );
}
