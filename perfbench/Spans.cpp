//===- perfbench/Spans.cpp - Layer timing and in-memory spans -------------===//
//
// Part of StrataIB.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include <cassert>
#include <fstream>

using namespace perfbench;

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

int32_t Tracer::open(const char *Name) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.StartNs = nowNs();
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Pass = Pass;
  int32_t Id = static_cast<int32_t>(Spans.size());
  Spans.push_back(S);
  Open.push_back(Id);
  return Id;
}

void Tracer::close(int32_t Id) {
  if (Id < 0)
    return;
  assert(!Open.empty() && Open.back() == Id && "spans close innermost first");
  Spans[Id].EndNs = nowNs();
  Open.pop_back();
}

std::map<std::string, double> Tracer::selfMsByLayer(int32_t P) const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Pass != P)
      continue;
    std::string Name = S.Name;
    std::string Layer = Name.substr(0, Name.find('.'));
    Self[Layer] += static_cast<double>(S.EndNs - S.StartNs - ChildNs[I]) / 1e6;
  }
  return Self;
}

bool Tracer::writeJsonl(const std::string &Path) const {
  std::ofstream OS(Path);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << "{\"id\":" << I << ",\"name\":\"" << S.Name
       << "\",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
       << ",\"parent\":" << S.Parent << ",\"pass\":" << S.Pass << "}\n";
  }
  return static_cast<bool>(OS);
}
