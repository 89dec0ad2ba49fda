// Fixture: differencing a live counter read (obs::counter::value(),
// sampler::tick_count()) is flagged; subtracting a plain local, or
// dereferencing through value()->, is not.
// pseudo-path: src/runtime/fixture.cpp
// expect: counter-diff x2

struct counter_like {
    unsigned long value() const { return 0; }
};

struct sampler_like {
    unsigned long tick_count() const { return 0; }
};

unsigned long stat_delta(const counter_like& c, unsigned long before)
{
    return c.value() - before;
}

unsigned long ticks_since(const sampler_like& s, unsigned long before)
{
    return s.tick_count() - before;
}

struct holder_like {
    const counter_like* value() const { return nullptr; }
};

unsigned long through(const holder_like& h)
{
    return h.value()->value();
}

unsigned long fine(unsigned long after, unsigned long before)
{
    return after - before;
}
