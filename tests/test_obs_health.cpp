// Tests for the slow-cell health monitor: no flagging below min_samples
// (a cold p99 is noise), the cached k x p99 threshold flags genuine
// outliers and passes typical samples, drop-oldest event retention, the
// write_log line format, monitored_timer's enabled/disabled behavior, and
// -- under TSan -- concurrent is_outlier/log against a hot histogram.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"

namespace {

using namespace synts;

/// A histogram whose p99 is firmly at the `typical` magnitude.
void fill_typical(obs::latency_histogram& hist, std::uint64_t typical,
                  std::size_t n = 1000)
{
    for (std::size_t i = 0; i < n; ++i) {
        hist.record(typical);
    }
}

TEST(obs_health, silent_below_min_samples)
{
    obs::latency_histogram hist;
    obs::counter outliers;
    obs::health_options opts;
    opts.min_samples = 64;
    obs::health_monitor monitor("test.lat_ns", hist, outliers, opts);

    fill_typical(hist, 1000, 63); // one short of min_samples
    // Even an absurd sample is not flagged before the p99 is trustworthy.
    EXPECT_FALSE(monitor.is_outlier(1'000'000'000));
    EXPECT_EQ(monitor.threshold_ns(), 0u);
}

TEST(obs_health, flags_beyond_k_times_p99_and_passes_typical)
{
    obs::latency_histogram hist;
    obs::counter outliers;
    obs::health_options opts;
    opts.k = 4.0;
    opts.min_samples = 64;
    opts.refresh_interval = 1; // re-derive every note: deterministic here
    obs::health_monitor monitor("test.lat_ns", hist, outliers, opts);

    fill_typical(hist, 1000);
    EXPECT_FALSE(monitor.is_outlier(1000));
    EXPECT_FALSE(monitor.is_outlier(2000)); // slow but under 4 x p99
    const std::uint64_t threshold = monitor.threshold_ns();
    // 4 x p99; p99 is the log-bucket lower bound near 1000 (granularity 16).
    EXPECT_GE(threshold, 3900u);
    EXPECT_LE(threshold, 4100u);
    EXPECT_TRUE(monitor.is_outlier(threshold * 10));

    monitor.log(threshold * 10, "stage=simple_alu thread=2 interval=7");
    EXPECT_EQ(monitor.event_count(), 1u);
    EXPECT_EQ(outliers.value(), 1u);

    const std::vector<obs::health_event> events = monitor.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].value_ns, threshold * 10);
    EXPECT_EQ(events[0].threshold_ns, threshold);
    EXPECT_EQ(events[0].detail, "stage=simple_alu thread=2 interval=7");
    EXPECT_GT(events[0].t_ns, 0u);
}

TEST(obs_health, retains_newest_events_and_counts_drops)
{
    obs::latency_histogram hist;
    obs::counter outliers;
    obs::health_options opts;
    opts.capacity = 3;
    obs::health_monitor monitor("test.lat_ns", hist, outliers, opts);

    for (int i = 0; i < 5; ++i) {
        monitor.log(1000 + i, "event" + std::to_string(i));
    }
    EXPECT_EQ(monitor.event_count(), 5u);
    const std::vector<obs::health_event> events = monitor.events();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].detail, "event2"); // oldest retained
    EXPECT_EQ(events[2].detail, "event4"); // newest

    std::ostringstream log;
    monitor.write_log(log);
    const std::string text = log.str();
    EXPECT_NE(text.find("... 2 older slow-cell events dropped"), std::string::npos)
        << text;
    EXPECT_NE(text.find("SLOW test.lat_ns 1004ns"), std::string::npos) << text;
    EXPECT_NE(text.find("event4"), std::string::npos) << text;
    EXPECT_EQ(text.find("event1"), std::string::npos) << text; // dropped
}

TEST(obs_health, monitored_timer_is_inert_when_telemetry_disabled)
{
    obs::set_enabled(false);
    obs::latency_histogram hist;
    obs::counter outliers;
    obs::health_monitor monitor("test.lat_ns", hist, outliers, {});

    bool detail_built = false;
    {
        const obs::monitored_timer timer(hist, monitor, [&] {
            detail_built = true;
            return std::string("unreachable");
        });
    }
    EXPECT_FALSE(detail_built);
    EXPECT_EQ(hist.total(), 0u);
    EXPECT_EQ(monitor.event_count(), 0u);
}

TEST(obs_health, monitored_timer_records_and_flags_only_outliers)
{
    obs::set_enabled(true);
    obs::latency_histogram hist;
    obs::counter outliers;
    obs::health_options opts;
    opts.refresh_interval = 1;
    obs::health_monitor monitor("test.lat_ns", hist, outliers, opts);

    // Typical population: millisecond-scale timer scopes. The margin
    // matters: the "fast" empty scope below must stay under 4 x p99 even
    // when sanitizer instrumentation (ASan/UBSan CI) inflates it by an
    // order of magnitude, while the 20 ms sleep still lands far beyond.
    fill_typical(hist, 1'000'000);

    int details_built = 0;
    {
        const obs::monitored_timer timer(hist, monitor, [&] {
            ++details_built;
            return std::string("fast scope");
        });
    }
    EXPECT_EQ(hist.total(), 1001u); // recorded...
    EXPECT_EQ(details_built, 0);          // ...but a fast scope is no outlier

    {
        const obs::monitored_timer timer(hist, monitor, [&] {
            ++details_built;
            return std::string("slow scope");
        });
        // Sleep long past 4 x p99 (p99 ~ 1 ms): a genuine outlier.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(details_built, 1);
    EXPECT_EQ(monitor.event_count(), 1u);
    EXPECT_EQ(monitor.events().back().detail, "slow scope");
    obs::set_enabled(false);
}

TEST(obs_health, cell_monitor_is_a_stable_singleton)
{
    obs::health_monitor& a = obs::health_monitor::cell_monitor();
    obs::health_monitor& b = obs::health_monitor::cell_monitor();
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.metric(), "characterize.cell_ns");
}

// TSan target: concurrent is_outlier (relaxed note counter + cached
// threshold refresh walking the histogram) and log (event mutex) against
// live recorders must be race-free.
TEST(obs_health, concurrent_notes_and_logs_are_race_free)
{
    obs::latency_histogram hist;
    obs::counter outliers;
    obs::health_options opts;
    opts.min_samples = 1;
    opts.refresh_interval = 8; // frequent refreshes: hit the racy re-derive
    opts.capacity = 16;
    obs::health_monitor monitor("stress.lat_ns", hist, outliers, opts);

    constexpr int thread_count = 4;
    constexpr int per_thread = 10'000;
    std::vector<std::thread> threads;
    threads.reserve(thread_count);
    for (int t = 0; t < thread_count; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < per_thread; ++i) {
                hist.record(1000);
                if (monitor.is_outlier(1000 + static_cast<std::uint64_t>(i))) {
                    monitor.log(1000 + static_cast<std::uint64_t>(i),
                                std::string("t").append(std::to_string(t)));
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(hist.total(),
              static_cast<std::uint64_t>(thread_count) * per_thread);
    EXPECT_EQ(monitor.event_count(), outliers.value());
    EXPECT_LE(monitor.events().size(), 16u);
}

} // namespace
