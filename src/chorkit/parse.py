"""Concrete syntax: tokenizer and one reader loop for both term families.

Choreography files (".mc"):

    C   ::= eta ";" C
          | "if" p "." E "then" "{" C "}" "else" "{" C "}" ";"? C?
          | "def" X "=" "{" C "}" "in" C | X | "0"
    eta ::= p "." E "->" q                  communication
          | p "." E "~>" "[" "#" n "]"      detached send
          | q "<~" "(" p "," payload ")"    detached receive

Network files (".sp"):

    N    ::= proc ("|" proc)* | ""
    proc ::= p "[" value "]" queue? "{" B "}"
    B    ::= q "!" E ";" B | p "?" ";" B
           | "if" E "then" "{" B "}" "else" "{" B "}" ";"? B?
           | "def" X "=" "{" B "}" "in" B | X | "0"

A trailing choreography after a conditional is grafted onto the terminated
leaves of both branches (the abstract syntax has no conditional
continuation).  Whitespace is insignificant; ``#`` introduces a tag, not a
comment.

Terms are read without recursion, so blocks nest to any depth: one loop
reads the prefixes of both families, and each open block waits on an
explicit stack.  Only parenthesised and negated expressions recurse.
"""

from __future__ import annotations

import re

from .errors import DupProcessError, ParseError
from .terms import (
    ERR,
    NIL,
    PRECEDENCE,
    BCond,
    BinOp,
    BoolV,
    BRecv,
    BSend,
    Call,
    Cell,
    Com,
    Cond,
    Def,
    IntV,
    Lit,
    Message,
    Network,
    Not,
    Process,
    Queue,
    RtRecv,
    RtSend,
    Tag,
    check_bound,
    check_tag_linearity,
    seq,
)

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<tag>\#\d+)
  | (?P<sym>->|~>|<~|[{}()\[\];,.|!?=+\-*<>@])
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)

# Tokens that can start a term: after a conditional, one of them starts its
# continuation.
_TERM_START = ("if", "def", "ident", "int")

_KEYWORDS = {"if", "then", "else", "def", "in", "true", "false", "err",
             "and", "or", "not"}


def _graft(decider, guard, then, orelse, cont):
    """The choreography conditional followed by ``cont``: the abstract
    syntax has no conditional continuation, so ``cont`` goes onto the
    terminated leaves of both branches."""
    return Cond(decider, guard, seq(then, cont), seq(orelse, cont))


class _Parser:
    """Tokens are ``(kind, text, offset)`` tuples; the kind of a keyword
    or a symbol is its text.  Two end-of-input tokens close the list, so
    the token after the next one can always be looked at."""

    def __init__(self, text):
        self.text = text
        self.tokens = tokens = []
        for m in _TOKEN_RE.finditer(text):
            kind, chunk = m.lastgroup, m.group()
            if kind == "ws":
                continue
            if kind == "bad":
                self.fail(f"unexpected character {chunk!r}", m.start())
            if kind == "sym" or chunk in _KEYWORDS:
                kind = chunk
            tokens.append((kind, chunk, m.start()))
        tokens += [("eof", "", len(text))] * 2
        self.pos = 0

    # -- token plumbing

    def place(self, offset):
        """The line and column of ``offset``, both counted from 1."""
        return (self.text.count("\n", 0, offset) + 1,
                offset - self.text.rfind("\n", 0, offset))

    def fail(self, message, offset=None):
        """Raise a ParseError at ``offset``, by default the next token's."""
        if offset is None:
            offset = self.tokens[self.pos][2]
        raise ParseError(message, *self.place(offset))

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        """The text of the next token, which must be of ``kind``."""
        found, text, offset = self.next()
        if found != kind:
            self.fail(f"expected {kind!r}, found {text or 'end of input'!r}",
                      offset)
        return text

    def eat(self, kind):
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    # -- values and expressions

    def integer(self, digits, offset, sign=1):
        """``sign`` times the decimal ``digits``, which must be in the
        64-bit range; digits are counted before ``int`` reads them."""
        digits = digits.lstrip("0") or "0"
        if len(digits) <= 19 and -2**63 <= sign * int(digits) < 2**63:
            return sign * int(digits)
        self.fail("integer outside the 64-bit range", offset)

    def value(self):
        kind, text, offset = self.next()
        if kind == "-":
            offset = self.tokens[self.pos][2]
            return IntV(self.integer(self.expect("int"), offset, -1))
        if kind == "int":
            return IntV(self.integer(text, offset))
        if kind == "true" or kind == "false":
            return BoolV(kind == "true")
        if kind == "err":
            return ERR
        self.fail(f"expected a value, found {text or 'end of input'!r}",
                  offset)

    def tag(self):
        offset = self.tokens[self.pos][2]
        return Tag(self.integer(self.expect("tag")[1:], offset))

    def expr(self, floor=1):
        """An expression whose binary operators bind at least as tightly
        as ``floor``, read by precedence climbing over PRECEDENCE."""
        left = self.operand()
        while PRECEDENCE.get(self.tokens[self.pos][0], 0) >= floor:
            op = self.next()[0]
            left = BinOp(op, left, self.expr(PRECEDENCE[op] + 1))
        return left

    def operand(self):
        kind, text, _ = self.tokens[self.pos]
        if kind == "not":
            self.pos += 1
            return Not(self.operand())
        if kind == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if kind == "@":
            self.pos += 1
            return Cell()
        if kind in ("int", "true", "false", "err", "-"):
            return Lit(self.value())
        self.fail(f"expected an expression, found {text or 'end of input'!r}")

    # -- action prefixes, each read after looking at its second token; each
    # gives the constructor and the fields before the continuation

    def interaction(self):
        _, src, offset = self.next()
        self.pos += 1  # "."
        expr = self.expr()
        kind, text, arrow = self.next()
        if kind == "->":
            dst = self.expect("ident")
            if dst == src:
                self.fail(f"process {src!r} cannot communicate with itself",
                          offset)
            self.expect(";")
            return Com, (src, expr, dst)
        if kind == "~>":
            self.expect("[")
            tag = self.tag()
            self.expect("]")
            self.expect(";")
            return RtSend, (src, expr, tag)
        self.fail(f"expected '->' or '~>', found {text!r}", arrow)

    def receive(self):
        _, dst, offset = self.next()
        self.pos += 1  # "<~"
        self.expect("(")
        src = self.expect("ident")
        if src == dst:
            self.fail(f"process {dst!r} cannot receive from itself", offset)
        self.expect(",")
        payload = self.tag() if self.tokens[self.pos][0] == "tag" \
            else self.value()
        self.expect(")")
        self.expect(";")
        return RtRecv, (src, payload, dst)

    def send(self):
        dst = self.next()[1]
        self.pos += 1  # "!"
        expr = self.expr()
        self.expect(";")
        return BSend, (dst, expr)

    def recv(self):
        src = self.next()[1]
        self.pos += 1  # "?"
        self.expect(";")
        return BRecv, (src,)

    # A term family: its action prefixes by their second token, the
    # constructor that completes its conditional, and its name in errors.
    CHOREOGRAPHY = ({".": interaction, "<~": receive}, _graft,
                    "choreography")
    BEHAVIOUR = ({"!": send, "?": recv}, BCond, "behaviour")

    # -- terms

    def term(self, family):
        """A term of ``family``, read in one loop.  Prefixes wait in
        ``prefixes`` until the leaf that ends them is read, and are then
        applied to it from the innermost out.  Each open block waits on
        ``blocks`` with the prefixes read before it, the constructor and
        fields that its ``}`` completes, and the token that must follow
        that ``}``: ``in`` after a body, ``else`` after a then branch, or
        an optional ``;`` after an else branch.  A definition and a
        conditional become prefixes of the term around them; a
        conditional's continuation is what its block reads next, so it
        is ``0`` when the block ends there."""
        actions, cond, what = family
        tokens = self.tokens
        prefixes, blocks = [], []
        while True:
            kind = tokens[self.pos][0]
            action = actions.get(tokens[self.pos + 1][0])
            if kind == "ident" and action is not None:
                prefixes.append(action(self))
            elif kind == "def":
                self.pos += 1
                fields = (self.expect("ident"),)
                self.expect("=")
                prefixes = self.open_block(blocks, prefixes, Def, fields, "in")
            elif kind == "if":
                self.pos += 1
                fields = ()
                if cond is _graft:  # a choreography names its decider
                    fields = (self.expect("ident"),)
                    self.expect(".")
                fields += (self.expr(),)
                self.expect("then")
                prefixes = self.open_block(blocks, prefixes, cond, fields,
                                           "else")
            else:
                t = self.leaf(what)
                while True:  # close blocks until one reads on
                    for make, fields in reversed(prefixes):
                        t = make(*fields, t)
                    if not blocks:
                        return t
                    prefixes, make, fields, after = blocks.pop()
                    self.expect("}")
                    if after == "else":
                        self.expect("else")
                        prefixes = self.open_block(blocks, prefixes, make,
                                             (*fields, t), ";")
                        break
                    prefixes.append((make, (*fields, t)))
                    if after == "in":
                        self.expect("in")
                        break
                    self.eat(";")
                    if tokens[self.pos][0] in _TERM_START:
                        break
                    t = NIL

    def open_block(self, blocks, prefixes, make, fields, after):
        """Read a block's ``{`` and put it on ``blocks``; the block's own
        prefixes start empty."""
        self.expect("{")
        blocks.append((prefixes, make, fields, after))
        return []

    def leaf(self, what):
        """A term without subterms: 0 or a recursion call."""
        kind, text, _ = self.tokens[self.pos]
        if kind == "ident" or text == "0":
            self.pos += 1
            return Call(text) if kind == "ident" else NIL
        if kind == "int":
            self.fail(f"a {what} term cannot start with an integer")
        self.fail(f"expected a {what} term, found {text or 'end of input'!r}")

    # -- networks

    def network(self):
        if self.tokens[self.pos][0] == "eof":
            return Network(())
        procs = {}
        while True:
            offset = self.tokens[self.pos][2]
            name = self.expect("ident")
            if name in procs:
                line, col = self.place(offset)
                raise DupProcessError(f"process {name!r} defined twice "
                                      f"(line {line}, column {col})")
            self.expect("[")
            state = self.value()
            self.expect("]")
            queue = Queue.empty()
            if self.eat("<"):
                messages = []
                while True:
                    self.expect("(")
                    sender = self.expect("ident")
                    self.expect(",")
                    payload = self.value()
                    self.expect(")")
                    messages.append(Message(sender, payload))
                    if not self.eat(","):
                        break
                self.expect(">")
                queue = Queue.of(messages)
            self.expect("{")
            procs[name] = Process(state, queue, self.term(self.BEHAVIOUR))
            self.expect("}")
            if not self.eat("|"):
                break
        self.expect("eof")
        return Network.of(procs)


def parse_choreography(text: str):
    parser = _Parser(text)
    chor = parser.term(_Parser.CHOREOGRAPHY)
    parser.expect("eof")
    check_bound(chor)
    check_tag_linearity(chor)
    return chor


def parse_network(text: str) -> Network:
    net = _Parser(text).network()
    for _, proc in net.procs:
        check_bound(proc.behaviour)
    return net


def parse_expr(text: str):
    parser = _Parser(text)
    e = parser.expr()
    parser.expect("eof")
    return e
