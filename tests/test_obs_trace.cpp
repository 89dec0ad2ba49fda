// Tests for obs/trace: span recording semantics (disabled = inert, lazy
// names unevaluated), per-thread buffers with chunk overflow, concurrent
// writers (the TSan CI job runs this suite), and the Chrome trace-event
// JSON shape Perfetto expects.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace {

using namespace synts;
using obs::trace_recorder;
using obs::trace_span;

TEST(obs_trace, disabled_recorder_spans_are_inert)
{
    trace_recorder recorder;
    ASSERT_FALSE(recorder.enabled());
    bool name_evaluated = false;
    {
        const trace_span span(recorder, [&]() -> std::string {
            name_evaluated = true;
            return "never";
        });
    }
    EXPECT_FALSE(name_evaluated);
    EXPECT_EQ(recorder.event_count(), 0u);

    // Enabling mid-span must not retroactively record the span: the
    // decision is taken at construction.
    recorder.set_enabled(false);
    {
        const trace_span span(recorder, "late");
        recorder.set_enabled(true);
    }
    EXPECT_EQ(recorder.event_count(), 0u);
}

TEST(obs_trace, spans_record_name_and_monotonic_bounds)
{
    trace_recorder recorder;
    recorder.set_enabled(true);
    {
        const trace_span outer(recorder, "outer");
        const trace_span inner(recorder,
                               [] { return std::string("inner") + ":formatted"; });
    }
    recorder.instant_event("mark");

    const std::vector<trace_recorder::event> events = recorder.events();
    ASSERT_EQ(events.size(), 3u);
    // Spans close inner-first (destruction order).
    EXPECT_EQ(events[0].name, "inner:formatted");
    EXPECT_EQ(events[1].name, "outer");
    EXPECT_EQ(events[2].name, "mark");
    EXPECT_EQ(events[0].phase, 'X');
    EXPECT_EQ(events[2].phase, 'i');
    EXPECT_EQ(events[2].dur_ns, 0u);
    // Nesting: outer starts no later than inner and ends no earlier.
    EXPECT_LE(events[1].ts_ns, events[0].ts_ns);
    EXPECT_GE(events[1].ts_ns + events[1].dur_ns, events[0].ts_ns + events[0].dur_ns);
    // All on the same (first) thread.
    EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(obs_trace, chunk_overflow_preserves_every_event_in_order)
{
    trace_recorder recorder;
    recorder.set_enabled(true);
    constexpr std::size_t count = 3000; // > 2 chunks of 1024
    for (std::size_t i = 0; i < count; ++i) {
        recorder.instant_event(std::string("e").append(std::to_string(i)), i);
    }
    ASSERT_EQ(recorder.event_count(), count);
    const std::vector<trace_recorder::event> events = recorder.events();
    ASSERT_EQ(events.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(events[i].name, std::string("e").append(std::to_string(i)));
        EXPECT_EQ(events[i].ts_ns, i);
    }
}

TEST(obs_trace, threads_get_distinct_buffers_and_ids)
{
    trace_recorder recorder;
    recorder.set_enabled(true);
    constexpr int thread_count = 4;
    constexpr std::size_t events_per_thread = 1500; // forces chunk overflow
    std::vector<std::thread> threads;
    threads.reserve(thread_count);
    for (int t = 0; t < thread_count; ++t) {
        threads.emplace_back([&recorder] {
            for (std::size_t i = 0; i < events_per_thread; ++i) {
                const trace_span span(recorder, "work");
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    const std::vector<trace_recorder::event> events = recorder.events();
    ASSERT_EQ(events.size(), thread_count * events_per_thread);

    // Thread-major snapshot: per-tid counts are exact and per-tid
    // timestamps are monotonic (steady clock, single writer per buffer).
    std::vector<std::size_t> per_tid(thread_count, 0);
    std::vector<std::uint64_t> last_ts(thread_count, 0);
    for (const trace_recorder::event& e : events) {
        ASSERT_LT(e.tid, static_cast<std::uint32_t>(thread_count));
        ++per_tid[e.tid];
        EXPECT_GE(e.ts_ns, last_ts[e.tid]);
        last_ts[e.tid] = e.ts_ns;
    }
    for (const std::size_t count : per_tid) {
        EXPECT_EQ(count, events_per_thread);
    }
}

TEST(obs_trace, chrome_trace_json_shape)
{
    trace_recorder recorder;
    recorder.set_enabled(true);
    recorder.complete_event("cell \"quoted\"", 1500, 2500);
    recorder.instant_event("mark", 4000);
    recorder.set_enabled(false);

    std::ostringstream out;
    recorder.write_chrome_trace(out);
    const std::string json = out.str();

    EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
    // ns -> us with three decimals; name escaped.
    EXPECT_NE(json.find("\"name\": \"cell \\\"quoted\\\"\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 1.500"), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 2.500"), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\": 4.000"), std::string::npos);
    // Every event carries pid/tid/cat.
    EXPECT_NE(json.find("\"pid\": "), std::string::npos);
    EXPECT_NE(json.find("\"tid\": 0"), std::string::npos);
    EXPECT_NE(json.find("\"cat\": \"synts\""), std::string::npos);
}

TEST(obs_trace, two_recorders_do_not_share_tls_bindings)
{
    // The TLS binding cache is keyed by recorder id: events must land in
    // the recorder they were issued on, even when one thread alternates.
    trace_recorder first;
    trace_recorder second;
    first.set_enabled(true);
    second.set_enabled(true);
    first.instant_event("a");
    second.instant_event("b");
    first.instant_event("c");
    EXPECT_EQ(first.event_count(), 2u);
    EXPECT_EQ(second.event_count(), 1u);
    EXPECT_EQ(second.events()[0].name, "b");
}

} // namespace
