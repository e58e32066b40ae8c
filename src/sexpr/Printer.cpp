//===- sexpr/Printer.cpp --------------------------------------------------===//

#include "sexpr/Printer.h"

#include <charconv>
#include <cmath>

using namespace s1lisp;
using namespace s1lisp::sexpr;

std::string sexpr::formatFlonum(double D) {
  if (std::isnan(D))
    return "+nan";
  if (std::isinf(D))
    return D > 0 ? "+inf" : "-inf";
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), D);
  (void)Ec;
  std::string S(Buf, End);
  // Guarantee a flonum spelling: needs '.' or exponent marker.
  if (S.find('.') == std::string::npos && S.find('e') == std::string::npos &&
      S.find("inf") == std::string::npos && S.find("nan") == std::string::npos)
    S += ".0";
  return S;
}

namespace {

/// Appends the flat print of \p V to \p Out. Once Out grows past \p Limit
/// characters the print may stop early, leaving a prefix longer than Limit;
/// otherwise it is complete.
void printTo(std::string &Out, Value V, size_t Limit = std::string::npos) {
  switch (V.kind()) {
  case ValueKind::Nil:
    Out += "nil";
    return;
  case ValueKind::Symbol:
    Out += V.symbol()->name();
    return;
  case ValueKind::Fixnum:
    Out += std::to_string(V.fixnum());
    return;
  case ValueKind::Flonum:
    Out += formatFlonum(V.flonum());
    return;
  case ValueKind::Ratio:
    Out += std::to_string(V.ratio().Num);
    Out += '/';
    Out += std::to_string(V.ratio().Den);
    return;
  case ValueKind::String: {
    Out += '"';
    for (char C : V.stringValue()) {
      if (C == '"' || C == '\\')
        Out += '\\';
      Out += C;
    }
    Out += '"';
    return;
  }
  case ValueKind::Cons: {
    Out += '(';
    Value Cur = V;
    bool First = true;
    while (Cur.isCons() && Out.size() <= Limit) {
      if (!First)
        Out += ' ';
      First = false;
      printTo(Out, Cur.car(), Limit);
      Cur = Cur.cdr();
    }
    if (Out.size() > Limit)
      return;
    if (!Cur.isNil()) {
      Out += " . ";
      printTo(Out, Cur, Limit);
    }
    Out += ')';
    return;
  }
  }
}

void prettyTo(std::string &Out, Value V, unsigned Indent, unsigned WrapColumn) {
  // Print flat when that fits. The trial print stops once it is too wide,
  // so each level costs at most the wrap column, not its whole subtree.
  const size_t Start = Out.size();
  if (V.isAtom()) {
    printTo(Out, V);
    return;
  }
  if (Indent <= WrapColumn) {
    const size_t Limit = Start + (WrapColumn - Indent);
    printTo(Out, V, Limit);
    if (Out.size() <= Limit)
      return;
    Out.resize(Start);
  }
  // Print "(head item...)" with items aligned under the head when the flat
  // form is too wide.
  Out += '(';
  Value Head = V.car();
  std::string HeadText = sexpr::toString(Head);
  Out += HeadText;
  unsigned ChildIndent = Indent + 2;
  Value Cur = V.cdr();
  bool HeadIsAtom = Head.isAtom();
  bool First = true;
  while (Cur.isCons()) {
    if (First && HeadIsAtom && HeadText.size() <= 8) {
      Out += ' ';
      ChildIndent = Indent + 1 + static_cast<unsigned>(HeadText.size()) + 1;
    } else {
      Out += '\n';
      Out.append(ChildIndent, ' ');
    }
    prettyTo(Out, Cur.car(), ChildIndent, WrapColumn);
    First = false;
    Cur = Cur.cdr();
  }
  if (!Cur.isNil()) {
    Out += " . ";
    printTo(Out, Cur);
  }
  Out += ')';
}

} // namespace

std::string sexpr::toString(Value V) {
  std::string Out;
  printTo(Out, V);
  return Out;
}

std::string sexpr::toPrettyString(Value V, unsigned WrapColumn) {
  std::string Out;
  prettyTo(Out, V, 0, WrapColumn);
  return Out;
}
