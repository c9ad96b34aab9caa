"""Randomized conformance soak: random corpora + random index configs, engine vs oracles (BM25, phrase, NOT, min-should-match, LMD, query-string, boolean trees, grouped top-k). Usage: python tools/soak.py [iters]"""
import os, shutil, sys, tempfile, time, traceback
import numpy as np, pandas as pd
import pyarrow as pa, pyarrow.parquet as pq
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import ray
ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext; DataContext.get_current().enable_progress_bars = False

from archivesspace_virgo_ray.index.build import BuildConfig, build_index
from archivesspace_virgo_ray.index.query import LocalSearcher
from archivesspace_virgo_ray.oracle import OracleIndex

VOCAB = ["aa","bb","cc","dd","ee","the","x1","y2","z3","needle_q","Alpha","mix-3"]
SEPS = [" ", "  ", ", ", "! ", "\n"]
QUERIES = ["the","aa bb","x1 y2 z3","needle_q","cc the dd","absent"]

def rand_corpus(rng, n):
    rows=[]
    for i in range(n):
        k=int(rng.integers(0,40))
        parts=[]
        for _ in range(k):
            parts.append(str(rng.choice(VOCAB))); parts.append(str(rng.choice(SEPS)))
        rows.append({"doc_id": i, "text": "".join(parts).rstrip()})
    # dup piles
    if n>4:
        rows[1]["text"]=rows[0]["text"]; rows[2]["text"]=rows[0]["text"]+" tail"
    return pd.DataFrame(rows)

iters=int(sys.argv[1]) if len(sys.argv)>1 else 15
fails=0
work=tempfile.mkdtemp(prefix="soak_")
t_start=time.time()
for it in range(iters):
    seed=int.from_bytes(os.urandom(4), "big")
    rng=np.random.default_rng(seed)
    try:
        pdf=rand_corpus(rng, int(rng.integers(15,80)))
        src=os.path.join(work, f"corpus_{it}.parquet"); pq.write_table(pa.Table.from_pandas(pdf,preserve_index=False), src)
        # BM25 vs oracle — random positional flag too
        idx=os.path.join(work, f"idx_{it}")
        positions=bool(rng.integers(0,2))
        build_index(src, idx, BuildConfig(n_shards=int(rng.integers(1,4)), n_buckets=int(rng.integers(1,5)),
                    text_col="text", id_col="doc_id", meta_cols=(), batch_size=int(rng.integers(8,64)),
                    store_positions=positions), resume=False)
        orc=OracleIndex(pdf["doc_id"].tolist(), pdf["text"].tolist())
        s=LocalSearcher(idx)
        for q in QUERIES:
            k=int(rng.integers(1,12))
            assert s.search(q,k)==orc.score_query(q,k), f"bm25:{q}"
        # phrase vs brute force (positional path when positions on, else text verify)
        from archivesspace_virgo_ray.functions.tokenize import tokenize_text as _tok
        from archivesspace_virgo_ray.index.phrase import phrase_needle, phrase_topk
        toks0=_tok(str(pdf["text"].iloc[int(rng.integers(0,len(pdf)))]))
        if len(toks0)>=2:
            j=int(rng.integers(0,len(toks0)-1)); ph=" ".join(toks0[j:j+2])
            k=int(rng.integers(1,12))
            out=phrase_topk(idx, src, pa.table({
                "query_id": pa.array([0], pa.int64()),
                "text": pa.array([ph], pa.string()),
                "k": pa.array([k], pa.int32())})).to_pandas()
            needle=phrase_needle(ph)
            matches={int(d) for d,t in zip(pdf["doc_id"],pdf["text"])
                     if needle in " "+" ".join(_tok(t))+" "}
            full=orc.score_query(ph, len(pdf))
            want=[(d,sc) for d,sc in full if d in matches][:k]
            got=list(zip(out["doc_id"],out["score"]))
            assert got==want, f"phrase:{ph}:positions={positions}"
        # NOT queries: exclusion == score-then-filter on the oracle's full list
        from archivesspace_virgo_ray.functions.tokenize import tokenize_text
        toks_by_doc={int(d):set(tokenize_text(t)) for d,t in zip(pdf["doc_id"],pdf["text"])}
        for q in QUERIES[:3]:
            neg=str(rng.choice(VOCAB))
            negt=set(tokenize_text(neg))  # engine semantics: ANY neg token
            k=int(rng.integers(1,12))
            full=orc.score_query(q, len(pdf))
            want=[(d,sc) for d,sc in full if not (negt & toks_by_doc[d])][:k]
            assert s.search(q,k,not_text=neg)==want, f"not:{q}-{neg}"
        # mm (minimum-should-match) through the pool: >= m distinct terms
        from archivesspace_virgo_ray.index.query import bm25_topk as _bt
        for q in ("aa bb cc", "the x1 y2"):
            qterms=set(tokenize_text(q)); m=int(rng.integers(1,len(qterms)+2))
            k=int(rng.integers(1,12))
            full=orc.score_query(q, len(pdf))
            want=[(d,sc) for d,sc in full if len(qterms & toks_by_doc[d])>=m][:k]
            mt=_bt(idx, pa.table({"query_id":pa.array([0],pa.int64()),
                "text":pa.array([q],pa.string()),
                "min_match":pa.array([m],pa.int32()),
                "k":pa.array([k],pa.int32())})).to_pandas()
            assert list(zip(mt["doc_id"],mt["score"]))==want, f"mm:{q}:{m}"
        # LM Dirichlet vs a direct numpy reference (clamped Lucene form)
        from archivesspace_virgo_ray.index.query import lmd_topk as _lmd
        mu=float(rng.choice([500.0, 2000.0, 5000.0]))
        toks_all=[_tok(t) for t in pdf["text"]]
        dl_ref={int(d): float(len(t)) for d,t in zip(pdf["doc_id"],toks_all)}
        total_len=float(sum(dl_ref.values()))
        cf_ref={}
        for t in toks_all:
            for w in t: cf_ref[w]=cf_ref.get(w,0)+1
        for q in QUERIES[:3]:
            k=int(rng.integers(1,12))
            # random NOT clause and mm: the reference filters its full ranking
            neg=str(rng.choice(VOCAB)); negt=set(tokenize_text(neg))
            qterms=set(_tok(q)); m=int(rng.integers(1,len(qterms)+2))
            want_scores={}
            for term in sorted(qterms):
                if term not in cf_ref: continue
                rate=total_len/(mu*cf_ref[term])
                for d,t in zip(pdf["doc_id"],toks_all):
                    tf=t.count(term)
                    if tf:
                        c=max(0.0, float(np.log(1.0+tf*rate)+np.log(mu/(dl_ref[int(d)]+mu))))
                        want_scores[int(d)]=want_scores.get(int(d),0.0)+c
            want_scores={d:sc for d,sc in want_scores.items()
                         if not (negt & toks_by_doc[d]) and len(qterms & toks_by_doc[d])>=m}
            lt=_lmd(idx, pa.table({"query_id":pa.array([0],pa.int64()),
                "text":pa.array([q],pa.string()),
                "not_text":pa.array([neg],pa.string()),
                "min_match":pa.array([m],pa.int32()),
                "k":pa.array([k],pa.int32())}), mu=mu).to_pandas()
            # per-doc value parity, and the top-k score list within float
            # summation-order noise (the reference sums in another order)
            for d,sc in zip(lt["doc_id"],lt["score"]):
                assert int(d) in want_scores, f"lmd:{q}-{neg}:{m}:{d}"
                assert abs(sc-want_scores[int(d)])<1e-9, f"lmd:{q}:{d}"
            top=sorted(want_scores.values(), reverse=True)[:k]
            assert len(lt)==len(top) and np.allclose(lt["score"], top, rtol=0, atol=1e-9), f"lmd:{q}-{neg}:{m}"
        # query-string parser vs a brute-force reference evaluator
        from archivesspace_virgo_ray.index.qparser import parse_query, querystring_topk
        toks_list=[_tok(t) for t in pdf["text"]]
        df_ref={}
        for t in toks_list:
            for w in set(t): df_ref[w]=df_ref.get(w,0)+1
        def _prox(tokens, ph, slop):
            cur=[i for i,t in enumerate(tokens) if t==ph[0]]
            for nxt in ph[1:]:
                nxt_pos=[j for j,t in enumerate(tokens) if t==nxt]
                cur=[q for q in nxt_pos if any(p<q<=p+slop+1 for p in cur)]
                if not cur: return False
            return bool(cur)
        for _try in range(2):
            parts=[str(rng.choice(VOCAB)) for _ in range(int(rng.integers(1,3)))]
            if rng.integers(0,2): parts.append("+"+str(rng.choice(VOCAB)))
            if rng.integers(0,2): parts.append("-"+str(rng.choice(VOCAB)))
            if rng.integers(0,2):
                pref=str(rng.choice(VOCAB))[:1]
                sign=["","+","-"][int(rng.integers(0,3))]  # signed prefixes
                parts.append(sign+pref+"*")
            slop=None
            if positions and rng.integers(0,2):
                src_toks=toks_list[int(rng.integers(0,len(toks_list)))]
                if len(src_toks)>=2:
                    j=int(rng.integers(0,len(src_toks)-1))
                    slop=int(rng.integers(0,3))
                    parts.append(f'"{src_toks[j]} {src_toks[j+1]}"'
                                 + (f"~{slop}" if slop else ""))
            qs_text=" ".join(parts)
            pqr=parse_query(qs_text)
            # reference positive term set with top-df prefix expansion
            from archivesspace_virgo_ray.index.qparser import QS_MAX_EXPANSIONS
            exp={p: [w for w,_ in sorted(
                ((w,d) for w,d in df_ref.items() if w.startswith(p)),
                key=lambda x:(-x[1],x[0]))[:QS_MAX_EXPANSIONS]]
                for p in pqr.all_prefixes()}
            positive=pqr.positive_terms(exp)
            if not positive: continue
            cand=set()
            for d,t in zip(pdf["doc_id"],toks_list):
                ts=set(t)
                if pqr.must and not set(pqr.must)<=ts: continue
                if pqr.must_not and set(pqr.must_not)&ts: continue
                # +pref*: ANY expansion present; -pref*: NONE present
                if any(not (set(exp.get(p,[])) & ts)
                       for p in pqr.must_prefixes): continue
                if any(set(exp.get(p,[])) & ts
                       for p in pqr.must_not_prefixes): continue
                ok=True
                for ph_text,ph_slop in pqr.phrases:
                    if not _prox(t,_tok(ph_text),ph_slop): ok=False; break
                if ok: cand.add(int(d))
            k=int(rng.integers(1,12))
            full=orc.score_query(" ".join(positive), len(pdf))
            want=[(d,sc) for d,sc in full if d in cand][:k]
            qt=querystring_topk(idx, pa.table({
                "query_id":pa.array([0],pa.int64()),
                "text":pa.array([qs_text],pa.string()),
                "k":pa.array([k],pa.int32())})).to_pandas()
            got=list(zip(qt["doc_id"],qt["score"]))
            assert got==want, f"qstring:{qs_text}"

        # --- boolean tree fuzz: random (AND/OR/NOT, parens) trees vs a
        # pure-python Lucene-BooleanScorer reference (gated contributions)
        from archivesspace_virgo_ray.index.qparser import boolean_topk, parse_boolean
        from archivesspace_virgo_ray.oracle import K1, B, bm25_idf
        base_terms=[w for w in ("aa","bb","cc","dd","ee","the","x1","y2","z3") ]
        def rand_tree(depth):
            r=int(rng.integers(0,10))
            if depth<=0 or r<4:
                return str(rng.choice(base_terms))
            if r<7:
                a,b=rand_tree(depth-1),rand_tree(depth-1)
                return f"({a} AND {b})" if rng.integers(0,2) else f"({a} OR {b})"
            a,b=rand_tree(depth-1),rand_tree(depth-1)
            return f"({a} AND NOT {b})" if rng.integers(0,2) else f"({a} NOT {b})"
        for _ in range(3):
            bq=rand_tree(2)
            tree=parse_boolean(bq)
            toks_by_doc={int(d):set(t) for d,t in zip(pdf["doc_id"],toks_list)}
            def m(n):
                if n.op=="term": return {d for d,ts in toks_by_doc.items() if n.leaf in ts}
                if n.op=="or":
                    out=set()
                    for c in n.children: out|=m(c)
                    return out
                pos=[c for c in n.children if c.op!="not"]
                out=m(pos[0])
                for c in pos[1:]: out&=m(c)
                for c in n.children:
                    if c.op=="not": out-=m(c.children[0])
                return out
            def sterm(t,d):
                tfv=orc.postings[t][d]; dl=orc.doc_len[d]
                idf=bm25_idf(len(orc.postings[t]), orc.n_docs)
                return idf*tfv*(K1+1.0)/(tfv+K1*(1.0-B+B*dl/orc.avgdl))
            acc={}
            def walk(n,gate):
                if n.op=="term":
                    hit=m(n)&gate if gate is not None else m(n)
                    for d in hit: acc[d]=acc.get(d,0.0)+sterm(n.leaf,d)
                    return
                if n.op=="not": return
                if n.op=="and":
                    mm=m(n); gate=mm if gate is None else gate&mm
                for c in n.children: walk(c,gate)
            walk(tree,None)
            want=sorted(((d,round(sc,6)) for d,sc in acc.items()), key=lambda kv:(-kv[1],kv[0]))[:8]
            bt=boolean_topk(idx, pa.table({"query_id":pa.array([0],pa.int64()),
                "text":pa.array([bq],pa.string()),"k":pa.array([8],pa.int32())})).to_pandas()
            got=list(zip(bt["doc_id"],bt["score"].round(6)))
            assert got==want, f"booltree:{bq}"
        # grouped top-k: per-group slices of the oracle's full ranking
        from archivesspace_virgo_ray.index.query import get_pool
        grp={int(d):f"g{int(d)%3}" for d in pdf["doc_id"]}
        pdf2=pdf.copy(); pdf2["grp"]=[grp[int(d)] for d in pdf2["doc_id"]]
        src2=os.path.join(work, f"grp_{it}.parquet"); pq.write_table(pa.Table.from_pandas(pdf2,preserve_index=False), src2)
        idx2=os.path.join(work, f"gidx_{it}")
        build_index(src2, idx2, BuildConfig(n_shards=int(rng.integers(1,4)), n_buckets=2,
                    text_col="text", id_col="doc_id", meta_cols=("grp",)), resume=False)
        n=int(rng.integers(1,4)); gq=QUERIES[int(rng.integers(0,5))]
        neg=str(rng.choice(VOCAB)); negt=set(tokenize_text(neg))
        qterms=set(tokenize_text(gq)); m=int(rng.integers(1,len(qterms)+2))
        gt=get_pool(idx2).grouped_topk(pa.table({"query_id":pa.array([0],pa.int64()),
            "text":pa.array([gq],pa.string()),"not_text":pa.array([neg],pa.string()),
            "min_match":pa.array([m],pa.int32()),"k":pa.array([n],pa.int32())}), "grp")
        full=[(d,sc) for d,sc in orc.score_query(gq, len(pdf))
              if not (negt & toks_by_doc[d]) and len(qterms & toks_by_doc[d])>=m]
        for g in sorted({v for v in grp.values()}):
            want=[(d,sc) for d,sc in full if grp[d]==g][:n]
            sub=gt[gt["grp"]==g]
            assert list(zip(sub["doc_id"],sub["score"]))==want, f"grouped:{gq}-{neg}:{m}:{g}"
    except Exception as e:
        fails+=1
        print(f"FAIL iter={it} seed={seed}: {e}", flush=True)
        traceback.print_exc()
print(f"soak done: {iters} iters, {fails} failures, {time.time()-t_start:.0f}s", flush=True)
ray.shutdown()
shutil.rmtree(work, ignore_errors=True)
sys.exit(1 if fails else 0)
