#include "spans.hpp"

#include <cstdio>
#include <memory>

namespace simbench {

std::uint32_t SpanLog::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

bool SpanLog::write(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return false;
  std::FILE* out = file.get();
  std::fputs("parent\trequest\tname\tstart_ns\tdur_ns\n", out);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
  for (const Span& s : spans_) {
    const long long parent =
        s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    const long long request =
        s.request == kNoRequest ? -1 : static_cast<long long>(s.request);
    std::fprintf(out, "%lld\t%lld\t%s\t%lld\t%lld\n", parent, request,
                 names_[s.name].c_str(),
                 static_cast<long long>(s.startNs - origin),
                 static_cast<long long>(s.endNs - s.startNs));
  }
  return std::fflush(out) == 0 && !std::ferror(out);
}

}  // namespace simbench
