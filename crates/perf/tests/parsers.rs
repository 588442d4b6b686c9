//! `/proc` parsers on fixture strings, the result-line round trip, and
//! the spread statistic the bounds are judged by.

use rstp_perf::campaign::{parse_result, verdict, Verdict};
use rstp_perf::json::Json;
use rstp_perf::procfs::{parse_schedstat_ns, parse_stat_cpu_ticks, parse_vm_hwm_kib};
use rstp_perf::stats::{median, quartiles, relative_spread};
use rstp_perf::workload::Better;

#[test]
fn stat_cpu_counts_from_the_last_paren() {
    // A command name with spaces and parentheses must not shift the
    // fields: utime = 250, stime = 75 clock ticks of 10 ms.
    let stat = "4242 (rstp (perf) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 75 0 0 20 0 5 0 \
                100 1000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
    assert_eq!(parse_stat_cpu_ticks(stat), Some(325));
    let short = "1 (cat) R 0 1 1 0 -1 4194304 81 0 0 0 0 0 0 0 20 0 1 0 221674";
    assert_eq!(parse_stat_cpu_ticks(short), Some(0));
    assert_eq!(parse_stat_cpu_ticks("1 (cat) R 0"), None);
    assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
}

#[test]
fn schedstat_reads_the_on_cpu_nanoseconds() {
    assert_eq!(
        parse_schedstat_ns("337718473 3498090 41\n"),
        Some(337_718_473)
    );
    assert_eq!(parse_schedstat_ns("0 46547 1"), Some(0));
    assert_eq!(parse_schedstat_ns(""), None);
    assert_eq!(parse_schedstat_ns("x 1 2"), None);
}

#[test]
fn status_peak_rss_is_vmhwm() {
    let status =
        "Name:\trstp-perf\nVmPeak:\t  20000 kB\nVmHWM:\t    9868 kB\nVmRSS:\t    9000 kB\n";
    assert_eq!(parse_vm_hwm_kib(status), Some(9868));
    assert_eq!(parse_vm_hwm_kib("VmRSS:\t 12 kB\n"), None);
}

#[test]
fn result_line_round_trips() {
    let line = r#"{"correct":true,"attempted":16,"failed":0,"metrics":{"msgs_per_s":{"value":2963.955,"unit":"msgs/s"},"setup_s":{"value":5.6e-5,"unit":"s"}}}"#;
    let parsed = parse_result(line).expect("result line");
    assert!(parsed.correct);
    assert_eq!(parsed.metrics.get("msgs_per_s"), Some(&2963.955));
    assert_eq!(parsed.metrics.get("setup_s"), Some(&5.6e-5));
    let doc = Json::parse(line).expect("json");
    assert_eq!(Json::parse(&doc.render()).expect("re-parse"), doc);
    assert_eq!(
        Json::parse(&doc.render_pretty()).expect("re-parse pretty"),
        doc
    );
    assert!(parse_result(r#"{"correct":true}"#).is_err());
    assert!(Json::parse("{\"a\": [1, 2,]}").is_err());
}

#[test]
fn quartiles_match_the_exclusive_method() {
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v), Some((2.75, 8.25)));
    assert_eq!(median(&v), Some(5.5));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
    let spread = relative_spread(&v).expect("spread");
    assert!((spread - 5.5 / 5.5).abs() < 1e-12);
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn compare_needs_ten_pairs_and_nine_wins_to_claim_a_gain() {
    let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
    let faster: Vec<f64> = parent.iter().map(|x| x - 10.0).collect();
    assert_eq!(
        verdict(&parent, &faster, Better::Lower, 0.05),
        Verdict::Better
    );
    // Five pairs are too few to claim anything.
    assert_eq!(
        verdict(&parent[..5], &faster[..5], Better::Lower, 0.05),
        Verdict::Same
    );
    // A difference inside the parent's own spread is no gain.
    let barely: Vec<f64> = parent.iter().map(|x| x - 0.5).collect();
    assert_eq!(
        verdict(&parent, &barely, Better::Lower, 0.05),
        Verdict::Same
    );
    // Worse by more than the bound is a regression, in either direction.
    let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
    assert_eq!(
        verdict(&parent, &slower, Better::Lower, 0.05),
        Verdict::Worse
    );
    assert_eq!(
        verdict(&slower, &parent, Better::Higher, 0.05),
        Verdict::Worse
    );
    // Spread wider than the bound is unresolved, not unchanged.
    let noisy: Vec<f64> = (0..10)
        .map(|i| if i % 2 == 0 { 80.0 } else { 120.0 })
        .collect();
    assert_eq!(
        verdict(&noisy, &noisy, Better::Lower, 0.05),
        Verdict::Unresolved
    );
}
