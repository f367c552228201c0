#include "machine/trace_window.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hidisc::machine {

bool TraceWindow::extend(std::size_t pos, std::size_t low) {
  if (!stream_) return false;
  Stream& s = *stream_;
  while (pos >= end_ && !s.func.halted()) {
    const std::size_t keep = std::min(low, end_);
    s.buf.erase(s.buf.begin(),
                s.buf.begin() + static_cast<std::ptrdiff_t>(keep - base_));
    base_ = keep;
    s.next_chunk();
    data_ = s.buf.data();
    end_ = base_ + s.buf.size();
  }
  return pos < end_;
}

void TraceWindow::below_base(std::size_t pos) const {
  throw std::logic_error("TraceWindow: entry " + std::to_string(pos) +
                         " read below the window's base " +
                         std::to_string(base_));
}

std::size_t TraceWindow::drain() {
  while (stream_ && !stream_->func.halted()) {
    stream_->buf.clear();
    base_ = end_;
    stream_->next_chunk();
    end_ = base_ + stream_->buf.size();
  }
  return end_;
}

}  // namespace hidisc::machine
