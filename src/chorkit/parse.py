"""Concrete syntax: tokenizer and recursive-descent parsers.

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
"""

from __future__ import annotations

import re

from .errors import DupProcessError, ParseError
from .terms import (
    BNIL,
    ERR,
    NIL,
    BCall,
    BCond,
    BDef,
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
  | (?P<arrow>->|~>|<~)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<tag>\#\d+)
  | (?P<sym>[{}()\[\];,.|!?=+\-*<>@])
""", re.VERBOSE)

# Tokens that can start a term: after a conditional, one of them starts its
# continuation.
_TERM_START = ("if", "def", "ident", "int")

_KEYWORDS = {"if", "then", "else", "def", "in", "true", "false", "err",
             "and", "or", "not"}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}({self.text!r})"


def _tokenize(text):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            if kind == "ident" and chunk in _KEYWORDS:
                kind = chunk
            elif kind in ("arrow", "sym"):
                kind = chunk
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def at(self, kind):
        return self.peek().kind == kind

    def eat(self, kind):
        if self.at(kind):
            self.next()
            return True
        return False

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # -- shared pieces

    def ident(self):
        return self.expect("ident").text

    def value(self):
        tok = self.next()
        if tok.kind == "-":
            return IntV(-int(self.expect("int").text))
        if tok.kind == "int":
            return IntV(int(tok.text))
        if tok.kind == "true":
            return BoolV(True)
        if tok.kind == "false":
            return BoolV(False)
        if tok.kind == "err":
            return ERR
        self.fail(f"expected a value, found {tok.text!r}", tok)

    def tag(self):
        tok = self.expect("tag")
        return Tag(int(tok.text[1:]))

    # -- expressions (precedence climbing)

    _LEVELS = [("or",), ("and",), ("=", "<"), ("+", "-"), ("*",)]

    def expr(self, level=0):
        if level == len(self._LEVELS):
            return self.expr_unary()
        left = self.expr(level + 1)
        while self.peek().kind in self._LEVELS[level]:
            op = self.next().kind
            right = self.expr(level + 1)
            left = BinOp(op, left, right)
        return left

    def expr_unary(self):
        if self.eat("not"):
            return Not(self.expr_unary())
        return self.expr_atom()

    def expr_atom(self):
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if tok.kind == "@":
            self.next()
            return Cell()
        if tok.kind in ("int", "true", "false", "err", "-"):
            return Lit(self.value())
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}")

    # -- terms (shared pieces)
    #
    # Interaction, definition and behaviour-conditional prefixes are read in
    # a loop and folded right, so straight-line programs of any length parse
    # without recursion.

    def braced(self, term):
        self.expect("{")
        t = term()
        self.expect("}")
        return t

    def definition(self, make, term):
        self.expect("def")
        var = self.ident()
        self.expect("=")
        body = self.braced(term)
        self.expect("in")
        return make, (var, body)

    @staticmethod
    def fold(prefixes, tail):
        for make, args in reversed(prefixes):
            tail = make(*args, tail)
        return tail

    def leaf(self, nil, call, what):
        """A term without subterms: 0 or a recursion call."""
        tok = self.peek()
        if tok.kind == "int":
            if tok.text == "0":
                self.next()
                return nil
            self.fail(f"a {what} term cannot start with an integer")
        if tok.kind == "ident":
            self.next()
            return call(tok.text)
        self.fail(f"expected a {what} term, found "
                  f"{tok.text or 'end of input'!r}")

    # -- choreographies

    def choreography(self):
        prefixes = []
        while True:
            kind, nxt = self.peek().kind, self.peek(1).kind
            if kind == "ident" and nxt == ".":
                prefixes.append(self.chor_interaction())
            elif kind == "ident" and nxt == "<~":
                prefixes.append(self.chor_recv())
            elif kind == "def":
                prefixes.append(self.definition(Def, self.choreography))
            elif kind == "if":
                return self.fold(prefixes, self.chor_cond())
            else:
                return self.fold(prefixes,
                                 self.leaf(NIL, Call, "choreography"))

    def chor_cond(self):
        self.expect("if")
        decider = self.ident()
        self.expect(".")
        guard = self.expr()
        self.expect("then")
        then = self.braced(self.choreography)
        self.expect("else")
        orelse = self.braced(self.choreography)
        self.eat(";")
        cont = NIL
        if self.peek().kind in _TERM_START:
            cont = self.choreography()
        return Cond(decider, guard, seq(then, cont), seq(orelse, cont))

    def chor_interaction(self):
        src_tok = self.peek()
        src = self.ident()
        self.expect(".")
        expr = self.expr()
        arrow = self.next()
        if arrow.kind == "->":
            dst = self.ident()
            if dst == src:
                self.fail(f"process {src!r} cannot communicate with itself",
                          src_tok)
            self.expect(";")
            return Com, (src, expr, dst)
        if arrow.kind == "~>":
            self.expect("[")
            tag = self.tag()
            self.expect("]")
            self.expect(";")
            return RtSend, (src, expr, tag)
        self.fail(f"expected '->' or '~>', found {arrow.text!r}", arrow)

    def chor_recv(self):
        dst_tok = self.peek()
        dst = self.ident()
        self.expect("<~")
        self.expect("(")
        src = self.ident()
        if src == dst:
            self.fail(f"process {dst!r} cannot receive from itself", dst_tok)
        self.expect(",")
        payload = self.tag() if self.at("tag") else self.value()
        self.expect(")")
        self.expect(";")
        return RtRecv, (src, payload, dst)

    # -- behaviours

    def behaviour(self):
        prefixes = []
        tail = None
        while tail is None:
            kind, nxt = self.peek().kind, self.peek(1).kind
            if kind == "ident" and nxt == "!":
                dst = self.ident()
                self.next()
                expr = self.expr()
                self.expect(";")
                prefixes.append((BSend, (dst, expr)))
            elif kind == "ident" and nxt == "?":
                src = self.ident()
                self.next()
                self.expect(";")
                prefixes.append((BRecv, (src,)))
            elif kind == "def":
                prefixes.append(self.definition(BDef, self.behaviour))
            elif kind == "if":
                self.next()
                guard = self.expr()
                self.expect("then")
                then = self.braced(self.behaviour)
                self.expect("else")
                orelse = self.braced(self.behaviour)
                self.eat(";")
                prefixes.append((BCond, (guard, then, orelse)))
                if self.peek().kind not in _TERM_START:
                    tail = BNIL
            else:
                tail = self.leaf(BNIL, BCall, "behaviour")
        return self.fold(prefixes, tail)

    # -- networks

    def network(self):
        if self.at("eof"):
            return Network(())
        procs = {}
        while True:
            name_tok = self.peek()
            name = self.ident()
            if name in procs:
                raise DupProcessError(
                    f"process {name!r} defined twice "
                    f"(line {name_tok.line}, column {name_tok.col})")
            self.expect("[")
            state = self.value()
            self.expect("]")
            queue = Queue.empty()
            if self.eat("<"):
                messages = []
                while True:
                    self.expect("(")
                    sender = self.ident()
                    self.expect(",")
                    payload = self.value()
                    self.expect(")")
                    messages.append(Message(sender, payload))
                    if not self.eat(","):
                        break
                self.expect(">")
                queue = Queue.of(messages)
            procs[name] = Process(state, queue, self.braced(self.behaviour))
            if not self.eat("|"):
                break
        self.expect("eof")
        return Network.of(procs)


def parse_choreography(text: str):
    parser = _Parser(text)
    chor = parser.choreography()
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
