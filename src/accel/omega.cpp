#include "accel/omega.hpp"

#include "common/log.hpp"

namespace awb {

namespace {

int
log2i(int v)
{
    int s = 0;
    while ((1 << s) < v) ++s;
    return s;
}

} // namespace

OmegaNetwork::OmegaNetwork(int ports, int buffer_depth, int speedup)
    : ports_(ports), stages_(log2i(ports)), bufferDepth_(buffer_depth),
      speedup_(std::max(speedup, 1))
{
    if (ports < 2 || (ports & (ports - 1)) != 0)
        fatal("OmegaNetwork: ports must be a power of two >= 2");
    if (buffer_depth < 1) fatal("OmegaNetwork: buffer depth must be >= 1");
    const std::size_t buffers = buffer(stages_, 0);
    slots_.resize(slot(buffers, 0));
    head_.assign(buffers, 0);
    size_.assign(buffers, 0);
    stageCount_.assign(static_cast<std::size_t>(stages_), 0);
}

bool
OmegaNetwork::inject(const Flit &flit, int src)
{
    if (!push(buffer(0, shuffle(src)), flit)) return false;
    ++stageCount_[0];
    return true;
}

void
OmegaNetwork::setArbitration(int parity)
{
    rrTick_ = parity & 1;
}

bool
OmegaNetwork::empty() const
{
    for (Count c : stageCount_)
        if (c != 0) return false;
    return true;
}

} // namespace awb
